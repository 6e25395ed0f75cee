// cyl-* workloads: the `hemocloud_cli run` product loop.
//
//   geometry -> lbm::FluidMesh::build -> decomp::make_partition (RCB)
//            -> runtime::ParallelSolver (AB-AoS-double, tau 0.8) -> run
//
// The timed region is a sequence of ParallelSolver::run(chunk) calls; the
// headline is fluid-point updates per second (Eq. 7 times 1e6), the median
// over chunks of each chunk's rate over the host speed around it. Per-layer
// numbers come from the public RankTimings, from
// runtime::validate_run, and from probes that run after the timed region:
// a plain 1-thread lbm::Solver<double> on the same mesh, checkpoint file
// I/O, SegmentedMesh statistics and STREAM COPY at the rank count.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>

#include <unistd.h>

#include "common.hpp"
#include "decomp/partition.hpp"
#include "geometry/generators.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/io.hpp"
#include "lbm/mesh.hpp"
#include "lbm/mesh_segments.hpp"
#include "lbm/solver.hpp"
#include "microbench/stream.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel_solver.hpp"
#include "runtime/validation.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace hemo;

/// Steps both solvers run before the reference-identity comparison.
constexpr index_t kCheckSteps = 4;
/// Fewest timed chunks per measured loop: the p90 step time needs at least
/// ten samples beyond it.
constexpr std::size_t kMinChunks = 100;

struct CylSpec {
  index_t radius = 0;
  index_t length = 0;
  index_t ranks = 0;
  index_t chunk_steps = 0;    ///< steps per timed ParallelSolver::run call
  index_t warmup_chunks = 0;  ///< untimed chunks before the timed region
  index_t setups = 0;         ///< odd, so the median setup is a real one
};

// cyl-small-r4 fits in cache (~25k points, ~7.7 MB per AB array): steps
// take under a millisecond, so barrier, thread spawn/join and halo costs
// are a visible share. cyl-large-r4 (~1.5M points, ~234 MB per AB array,
// the step's working set over 5x a 105 MiB LLC) is bound by memory traffic.
CylSpec spec_for(const Options& options) {
  if (options.smoke) return {6, 40, 4, 10, 1, 3};
  if (options.workload == "cyl-small-r4") return {10, 80, 4, 50, 4, 9};
  return {32, 480, 4, 1, 2, 3};
}

/// The seed sets the inlet's centreline velocity: it changes every value
/// of the flow field and none of the work per step.
double peak_velocity(std::uint64_t seed) {
  Xoshiro256 rng(hash_seed(seed, 0xc71du));
  return rng.uniform(0.03, 0.06);
}

lbm::SolverParams solver_params(index_t threads) {
  lbm::SolverParams params;  // AB + AoS + double, segmented path
  params.tau = 0.8;
  params.num_threads = threads;
  return params;
}

geometry::Geometry make_geometry(const CylSpec& spec, double velocity) {
  return geometry::make_cylinder({.radius = spec.radius,
                                  .length = spec.length,
                                  .peak_velocity = velocity});
}

/// Serial solver and the R-rank runtime run kCheckSteps steps from the
/// same input; their canonical states must match bit for bit. `flip`
/// perturbs one value of the serial reference (self-test). Everything is
/// freed before returning.
bool reference_identity(const CylSpec& spec, double velocity, bool flip,
                        std::string& detail) {
  const geometry::Geometry geo = make_geometry(spec, velocity);
  const lbm::FluidMesh mesh = lbm::FluidMesh::build(geo.grid);
  std::vector<double> reference;
  {
    lbm::Solver<double> serial(mesh, solver_params(0), geo.inlets);
    serial.run(kCheckSteps);
    reference = serial.export_state();
  }
  if (flip) {
    double& v = reference[reference.size() / 2];
    v = std::nextafter(v, 2.0);
  }
  const decomp::Partition part =
      decomp::make_partition(mesh, spec.ranks, decomp::Strategy::kRcb);
  std::vector<double> ranks;
  {
    runtime::ParallelSolver solver(mesh, part, solver_params(0), geo.inlets);
    solver.run(kCheckSteps);
    ranks = solver.export_state();
  }
  if (ranks.size() != reference.size()) {
    detail = "state sizes differ";
    return false;
  }
  const auto diff = std::mismatch(
      ranks.begin(), ranks.end(), reference.begin(),
      [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; });
  if (diff.first != ranks.end()) {
    detail = "first differing value at index " +
             std::to_string(diff.first - ranks.begin()) + " of " +
             std::to_string(ranks.size());
    return false;
  }
  detail = std::to_string(ranks.size()) + " values bit-identical after " +
           std::to_string(kCheckSteps) + " steps";
  return true;
}

/// Mean density of a healthy run stays near 1; NaN, inf or a drift past
/// 10 % mean the state is broken.
bool density_ok(double mass, index_t points) {
  const double rho = mass / static_cast<double>(points);
  return std::isfinite(rho) && std::abs(rho - 1.0) < 0.1;
}

/// One built product pipeline. The mesh is heap-held because the solver
/// keeps a pointer to it.
struct Pipeline {
  geometry::Geometry geo;
  std::unique_ptr<lbm::FluidMesh> mesh;
  decomp::Partition part;
  std::unique_ptr<runtime::ParallelSolver> solver;
};

struct SetupTimes {
  double geometry = 0.0, mesh = 0.0, partition = 0.0, ctor = 0.0, total = 0.0;
  double speed = 1.0;  ///< host speed just before
};

std::unique_ptr<Pipeline> set_up(const CylSpec& spec, double velocity,
                                 Tracer& tracer, SetupTimes& times) {
  Tracer::Span total(tracer, "setup");
  std::optional<geometry::Geometry> geo;
  {
    Tracer::Span span(tracer, "geometry.build");
    geo = make_geometry(spec, velocity);
    times.geometry = span.close();
  }
  auto p = std::make_unique<Pipeline>(std::move(*geo));
  {
    Tracer::Span span(tracer, "lbm.mesh_build");
    p->mesh = std::make_unique<lbm::FluidMesh>(
        lbm::FluidMesh::build(p->geo.grid));
    times.mesh = span.close();
  }
  {
    Tracer::Span span(tracer, "decomp.partition");
    p->part = decomp::make_partition(*p->mesh, spec.ranks,
                                     decomp::Strategy::kRcb);
    times.partition = span.close();
  }
  {
    Tracer::Span span(tracer, "runtime.ctor");
    p->solver = std::make_unique<runtime::ParallelSolver>(
        *p->mesh, p->part, solver_params(0), p->geo.inlets);
    times.ctor = span.close();
  }
  times.total = total.close();
  return p;
}

/// One measured loop of chunks.
struct ChunkLog {
  std::vector<double> wall_s;  ///< per chunk
  std::vector<double> speed;   ///< mean host speed before and after each chunk
  std::vector<runtime::RankTimings> ranks;  ///< per-rank deltas over the loop
  index_t steps = 0;
  index_t bad_chunks = 0;  ///< density check failed after the chunk
};

ChunkLog run_chunks(runtime::ParallelSolver& solver, const CylSpec& spec,
                    index_t points, double seconds, Tracer& tracer) {
  ChunkLog log;
  const std::vector<runtime::RankTimings> before(solver.timings().begin(),
                                                 solver.timings().end());
  const Clock::time_point start = Clock::now();
  std::vector<double> probes{host_speed(spec.ranks)};
  do {
    Tracer::Span span(tracer, "runtime.run");
    solver.run(spec.chunk_steps);
    log.wall_s.push_back(span.close());
    log.steps += spec.chunk_steps;
    if (!density_ok(solver.total_mass(), points)) ++log.bad_chunks;
    probes.push_back(host_speed(spec.ranks));
  } while (seconds_since(start) < seconds || log.wall_s.size() < kMinChunks);
  for (std::size_t i = 0; i + 1 < probes.size(); ++i) {
    log.speed.push_back((probes[i] + probes[i + 1]) / 2);
  }
  for (std::size_t r = 0; r < before.size(); ++r) {
    const runtime::RankTimings& now = solver.timings()[r];
    runtime::RankTimings d;
    d.steps = now.steps - before[r].steps;
    d.pack_s = now.pack_s - before[r].pack_s;
    d.wait_s = now.wait_s - before[r].wait_s;
    d.unpack_s = now.unpack_s - before[r].unpack_s;
    d.mem_s = now.mem_s - before[r].mem_s;
    log.ranks.push_back(d);
  }
  return log;
}

/// Fluid-point updates per second of each chunk (wall clock).
std::vector<double> rates(const ChunkLog& log, double updates_per_chunk) {
  std::vector<double> out;
  for (const double w : log.wall_s) out.push_back(updates_per_chunk / w);
  return out;
}

/// Median over the loop's chunks of each chunk's rate divided by the host
/// speed around it.
double normalized_rate(const ChunkLog& log, double updates_per_chunk) {
  std::vector<double> out = rates(log, updates_per_chunk);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] /= log.speed[i];
  return median(out);
}

/// Per-layer numbers of the runtime from the traced loop: the slowest
/// rank's memory and communication time per step and the remainder of the
/// step wall time it was not busy (barrier, spawn/join), as shares of the
/// step wall time.
void runtime_layers(const ChunkLog& log, const CylSpec& spec,
                    Result& result) {
  std::vector<double> step_us;
  for (const double w : log.wall_s) {
    step_us.push_back(w * 1e6 / static_cast<double>(spec.chunk_steps));
  }
  result.metric("runtime.step_p90_ratio",
                quantile(step_us, 0.9) / quantile(step_us, 0.5), "ratio");
  result.metric("runtime.step_samples", static_cast<double>(step_us.size()),
                "count");

  double wall = 0.0;
  for (const double w : log.wall_s) wall += w;
  std::size_t slowest = 0;
  double busy_sum = 0.0, wait_sum = 0.0;
  for (std::size_t r = 0; r < log.ranks.size(); ++r) {
    busy_sum += log.ranks[r].busy_s();
    wait_sum += log.ranks[r].wait_s;
    if (log.ranks[r].busy_s() > log.ranks[slowest].busy_s()) slowest = r;
  }
  const auto steps = static_cast<double>(log.steps);
  const double wall_us = wall * 1e6 / steps;
  const double mem_us = log.ranks[slowest].mem_s * 1e6 / steps;
  const double comm_us = log.ranks[slowest].comm_s() * 1e6 / steps;
  const double rest_us = wall_us - mem_us - comm_us;
  const double mean_busy = busy_sum / static_cast<double>(log.ranks.size());
  result.metric("runtime.mem_share", mem_us / wall_us, "fraction");
  result.metric("runtime.comm_share", comm_us / wall_us, "fraction");
  result.metric("runtime.wait_share", busy_sum > 0 ? wait_sum / busy_sum : 0,
                "fraction");
  result.metric("runtime.busy_imbalance",
                mean_busy > 0 ? log.ranks[slowest].busy_s() / mean_busy : 1.0,
                "ratio");
  result.metric("runtime.unattributed_share", rest_us / wall_us, "fraction");
  result.layer_sum("step wall " + fmt(wall_us) + " us = mem " + fmt(mem_us) +
                   " + comm " + fmt(comm_us) + " + unattributed " +
                   fmt(rest_us) + " (slowest rank " +
                   std::to_string(slowest) + ", " +
                   std::to_string(log.steps) + " steps)");
}

/// Plain 1-thread serial solver on the same mesh and kernel config: the
/// single-thread baseline, plus checkpoint write/read through its files.
/// Returns the serial MFLUPS.
double serial_probes(const Pipeline& p, const CylSpec& spec,
                     const Options& options, Tracer& tracer,
                     Result& result) {
  const lbm::FluidMesh& mesh = *p.mesh;
  const auto points = static_cast<double>(mesh.num_points());
  {
    Tracer::Span span(tracer, "lbm.segment_build");
    const lbm::SegmentedMesh seg = lbm::SegmentedMesh::build(mesh);
    result.metric("lbm.segment_mpts_per_s", points / 1e6 / span.close(),
                  "Mpts/s");
    result.metric("lbm.mean_span_len", seg.mean_span_length(), "points");
    result.metric("lbm.bulk_interior_share",
                  static_cast<double>(seg.bulk_count()) / points, "fraction");
  }

  Tracer::Span probe(tracer, "lbm.serial_baseline");
  lbm::Solver<double> serial(mesh, solver_params(1), p.geo.inlets);
  serial.run(spec.chunk_steps);  // warm-up
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  const double budget = options.smoke ? 0.2 : 1.5;
  while (walls.size() < 3 || seconds_since(start) < budget) {
    Tracer::Span span(tracer, "lbm.serial_run");
    serial.run(spec.chunk_steps);
    walls.push_back(span.close());
  }
  const double serial_mflups =
      points * static_cast<double>(spec.chunk_steps) / median(walls) / 1e6;
  result.metric("lbm.serial_mflups", serial_mflups, "MFLUPS");
  probe.close();

  const std::string path = options.out_dir + "/e2e-checkpoint-" +
                           std::to_string(::getpid()) + ".bin";
  const std::vector<double> saved = serial.export_state();
  double write_s = 0.0, read_s = 0.0;
  {
    Tracer::Span span(tracer, "lbm.checkpoint_write");
    lbm::save_checkpoint_file(serial, path);
    write_s = span.close();
  }
  const auto bytes = static_cast<double>(std::filesystem::file_size(path));
  serial.run(1);  // move away from the saved state before restoring it
  {
    Tracer::Span span(tracer, "lbm.checkpoint_read");
    lbm::load_checkpoint_file(serial, path);
    read_s = span.close();
  }
  std::filesystem::remove(path);
  const std::vector<double> restored = serial.export_state();
  result.check("checkpoint_roundtrip",
               saved.size() == restored.size() &&
                   std::memcmp(saved.data(), restored.data(),
                               saved.size() * sizeof(double)) == 0,
               fmt(bytes / 1e6) + " MB restored bit for bit");
  result.metric("lbm.ckpt_write_mbs", bytes / 1e6 / write_s, "MB/s");
  result.metric("lbm.ckpt_read_mbs", bytes / 1e6 / read_s, "MB/s");
  return serial_mflups;
}

}  // namespace

bool is_cyl_workload(const std::string& name) {
  return name == "cyl-small-r4" || name == "cyl-large-r4";
}

void run_cyl(const Options& options, Result& result) {
  const CylSpec spec = spec_for(options);
  const double velocity = peak_velocity(options.seed);
  result.threads = spec.ranks;
  Tracer tracer(options.trace);
  Tracer quiet(false);

  {
    std::string detail;
    Tracer::Span span(tracer, "check.reference_identity");
    const bool ok = reference_identity(spec, velocity, false, detail);
    result.check("reference_identity", ok, detail);
  }

  std::unique_ptr<Pipeline> pipe;
  std::vector<SetupTimes> setups;
  for (index_t i = 0; i < spec.setups; ++i) {
    pipe.reset();  // free the previous pipeline outside the timed set-up
    release_free_memory();
    SetupTimes times;
    times.speed = host_speed(1, 5);
    pipe = set_up(spec, velocity, tracer, times);
    setups.push_back(times);
  }
  runtime::ParallelSolver& solver = *pipe->solver;
  const index_t points = pipe->mesh->num_points();
  const double updates_per_chunk =
      static_cast<double>(points) * static_cast<double>(spec.chunk_steps);

  {
    Tracer::Span span(tracer, "warmup");
    solver.run(spec.warmup_chunks * spec.chunk_steps);
  }
  {
    // A deterministic state: equal across runs, rounds and commits for a
    // seed, which compare.py checks.
    const std::vector<double> state = solver.export_state();
    result.output("state_digest",
                  digest_hex(state.data(), state.size() * sizeof(double)));
    result.output("digest_step", std::to_string(solver.timestep()));
  }

  // Untraced loop (the whole run at --trace 0, its first half otherwise).
  const double loop_s = options.trace ? options.seconds / 2 : options.seconds;
  const ChunkLog plain = run_chunks(solver, spec, points, loop_s, quiet);
  const double throughput = normalized_rate(plain, updates_per_chunk);
  std::optional<ChunkLog> traced;
  if (options.trace) {
    traced = run_chunks(solver, spec, points, loop_s, tracer);
  }
  const double rss = resident_mib();

  const index_t bad = plain.bad_chunks + (traced ? traced->bad_chunks : 0);
  result.attempted = static_cast<index_t>(plain.wall_s.size()) +
                     (traced ? static_cast<index_t>(traced->wall_s.size()) : 0);
  result.failed = bad;
  result.check("density_after_each_chunk", bad == 0,
               std::to_string(bad) + " of " +
                   std::to_string(result.attempted) +
                   " chunks left a non-finite or drifted mean density");
  result.output("points", std::to_string(points));
  result.output("ranks", std::to_string(spec.ranks));
  result.output("chunk_steps", std::to_string(spec.chunk_steps));

  // The median set-up (odd count) supplies the layer split, so the layers
  // add up to the set-up time reported.
  std::vector<double> wall, normalized, speeds;
  for (const SetupTimes& s : setups) {
    wall.push_back(s.total);
    normalized.push_back(s.total * s.speed);
    speeds.push_back(s.speed);
  }
  const double setup_s = median(normalized);
  const SetupTimes mid = *std::find_if(
      setups.begin(), setups.end(),
      [&](const SetupTimes& s) { return s.total * s.speed == setup_s; });
  const double setup_rest =
      mid.total - mid.geometry - mid.mesh - mid.partition - mid.ctor;
  result.layer_sum("setup " + fmt(mid.total) + " s wall = geometry " +
                   fmt(mid.geometry) + " + mesh " + fmt(mid.mesh) +
                   " + partition " + fmt(mid.partition) + " + runtime ctor " +
                   fmt(mid.ctor) + " + unattributed " + fmt(setup_rest));
  result.samples("wall_throughput", rates(plain, updates_per_chunk));
  result.samples("wall_setup_s", wall);
  result.samples("host_speed", plain.speed);
  result.samples("setup_host_speed", speeds);

  if (!options.trace) {
    result.metric("throughput", throughput, "1/s");
    result.metric("setup_s", setup_s, "s");
    result.metric("rss_mb", rss, "MiB");
    return;
  }

  result.metric("host.speed", median(plain.speed), "ratio");

  result.metric("geometry.build_share", mid.geometry / mid.total, "fraction");
  result.metric("lbm.mesh_build_share", mid.mesh / mid.total, "fraction");
  result.metric("decomp.partition_share", mid.partition / mid.total,
                "fraction");
  result.metric("runtime.ctor_share", mid.ctor / mid.total, "fraction");
  result.metric("bench.setup_unattributed_share", setup_rest / mid.total,
                "fraction");
  const double traced_throughput =
      normalized_rate(*traced, updates_per_chunk);
  result.metric("bench.trace_overhead", throughput / traced_throughput - 1.0,
                "fraction");
  runtime_layers(*traced, spec, result);

  const lbm::KernelConfig kernel = solver_params(0).kernel;
  result.metric("decomp.imbalance_z",
                decomp::measured_imbalance(*pipe->mesh, solver.partition(),
                                           kernel),
                "ratio");
  result.metric("decomp.halo_kb", solver.bytes_per_exchange() / 1024.0, "KiB");
  {
    Tracer::Span span(tracer, "runtime.validate_run");
    const runtime::LocalHostModel host = runtime::LocalHostModel::measure();
    obs::MetricsRegistry registry;  // disabled: validate_run records nothing
    const runtime::ValidationReport report =
        runtime::validate_run(*pipe->mesh, solver.partition(), kernel, host,
                              solver.timings(), options.workload, registry);
    result.metric("runtime.model_mflups", report.predicted_mflups, "MFLUPS");
    result.metric("runtime.model_ratio",
                  report.measured_step_s / report.predicted_step_s, "ratio");
  }
  pipe->solver.reset();  // free the rank arrays before the probes allocate

  // Ratios against other wall-clock measurements use the wall rate.
  const double mflups = median(rates(plain, updates_per_chunk)) / 1e6;
  const double serial_mflups =
      serial_probes(*pipe, spec, options, tracer, result);
  result.metric("runtime.parallel_eff",
                mflups / (static_cast<double>(spec.ranks) * serial_mflups),
                "fraction");

  const double bytes_per_flup =
      lbm::serial_bytes_per_step(*pipe->mesh, kernel) /
      static_cast<double>(points);
  result.metric("lbm.bytes_per_flup", bytes_per_flup, "B");
  pipe.reset();

  // STREAM COPY at the rank count, each array at least 4x the LLC.
  const std::int64_t llc = llc_bytes();
  const index_t elements =
      options.smoke ? index_t{1} << 20
                    : std::max<index_t>(index_t{1} << 20,
                                        static_cast<index_t>(4 * llc / 8 + 1));
  double copy_mbs = 0.0;
  {
    Tracer::Span span(tracer, "microbench.stream");
    copy_mbs = microbench::run_stream_local(elements, 3, spec.ranks).copy;
  }
  result.metric("host.stream_copy_mbs", copy_mbs, "MB/s");
  result.metric("host.stream_array_mib",
                static_cast<double>(elements) * 8.0 / (1 << 20), "MiB");
  result.metric("host.llc_mib", static_cast<double>(llc) / (1 << 20), "MiB");
  result.metric("lbm.roofline_frac", mflups * bytes_per_flup / copy_mbs,
                "fraction");

  const std::string trace_path =
      options.out_dir + "/trace-" + options.workload + ".json";
  tracer.write_chrome_json(trace_path);
  result.output("trace_file", trace_path);
}

void self_test_cyl(Result& result) {
  const CylSpec spec{6, 40, 4, 10, 1, 1};
  std::string detail;
  const bool clean = reference_identity(spec, 0.05, false, detail);
  result.check("reference_identity passes unperturbed", clean, detail);
  const bool flipped = reference_identity(spec, 0.05, true, detail);
  result.check("reference_identity fails on one flipped value", !flipped,
               detail);

  const double points = 1000.0;
  result.check("density check passes a healthy mass",
               density_ok(points * 1.001, 1000), "");
  result.check("density check fails on NaN",
               !density_ok(std::nan(""), 1000), "");
  result.check("density check fails on a 20% drift",
               !density_ok(points * 1.2, 1000), "");
  ++result.attempted;
}

}  // namespace e2e
