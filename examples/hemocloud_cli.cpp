// hemocloud — command-line front end to the framework.
//
//   hemocloud_cli instances
//       List the instance catalog (Table I view).
//   hemocloud_cli calibrate <instance>
//       Run the microbenchmark calibration and print fit parameters.
//   hemocloud_cli predict <geometry> <instance> <ranks>
//       Direct-model prediction vs a virtual-cluster measurement.
//   hemocloud_cli dashboard <geometry> <timesteps>
//       Evaluate all instances, print cost metrics and recommendations.
//   hemocloud_cli simulate <geometry> <steps> [out.vtk]
//       Run the real solver locally; optionally export the flow field.
//   hemocloud_cli run <geometry> <steps> [--ranks N] [--rebalance]
//                     [--profile out.folded]
//       Run the threaded parallel runtime (src/runtime/) with real halo
//       messaging, then characterize this host (STREAM + PingPong) and
//       print the measured-vs-predicted per-rank table (Eq. 9 memory
//       term, Eq. 12 communication term). --rebalance enables dynamic
//       load rebalancing mid-run; --profile samples the rank phase
//       stacks and writes a collapsed-stack flamegraph profile.
//   hemocloud_cli schedule <geometry> <n_jobs> <timesteps> [seed] [--csv]
//                          [--trace out.json] [--metrics out.jsonl]
//                          [--listen PORT] [--hold SEC]
//       Run a model-driven campaign through the scheduler (src/sched/)
//       and print the campaign report (--csv: canonical CSV instead of
//       the table; byte-identical for a fixed seed). --trace exports a
//       Chrome-trace/Perfetto JSON of the campaign (virtual-time spans
//       are byte-stable for a fixed seed); --metrics writes a JSONL
//       snapshot of the telemetry registry. --listen serves the live
//       telemetry plane (/metrics, /metrics.json, /healthz, /status)
//       during the campaign and for --hold seconds afterwards (-1 = until
//       killed), with the SLO watchdog and fault flight recorder armed.
//       Observability quick-start:
//         hemocloud_cli schedule cylinder 6 20000 42 --listen 9100 --hold -1
//       then `curl localhost:9100/metrics` while it runs.
//   hemocloud_cli metrics <file.jsonl> [--filter 'name{label=...}']
//                         [--sort] [--format table|prom|json]
//       Summarize a --metrics snapshot. --filter selects series by glob
//       (over the name, or the full name{k=v} key when the pattern has
//       '{'); --sort orders slowest-first (histogram sum / value, the
//       same ordering `check` prints); --format prom re-renders the
//       snapshot as Prometheus text exposition, json as one document.
//   hemocloud_cli kernels [geometry]
//       SIMD backend inventory of this host (compiled / CPU-detected /
//       selected, honoring HEMO_SIMD) plus the roofline inputs per kernel
//       variant: bytes per fluid-point update from the paper's access
//       counts and the resulting MFLUPS bound over a measured STREAM COPY.
//   hemocloud_cli check [cases] [seed]
//       Run the model and solver oracles (src/check/). Exit 0
//       only when every oracle passes; failures print the shrunk
//       counterexample and its replay seed. Prints per-oracle wall
//       time, slowest first.
//   hemocloud_cli mutate [cases] [seed]
//       Mutation self-test: perturb one fitted model coefficient at a
//       time and verify the matching oracle catches it.
//   hemocloud_cli nemesis [--seed S] [--cases N] [--storm name]
//                         [--artifacts dir]
//       Nemesis fault harness (src/nemesis/): prove the checker kills
//       every seeded protocol mutant, then drive seeded fault storms
//       through the engine and replay every recorded history through
//       the invariant checker (specs/executor_protocol.md). Output is a
//       pure function of the seed; exit 0 only when everything passes.
//       --artifacts writes the shrunk failing schedule, its canonical
//       history, report CSV and verdict under the given directory.
//
// Geometries: cylinder | aorta | cerebral.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "check/mutation.hpp"
#include "check/oracles.hpp"
#include "nemesis/harness.hpp"
#include "core/dashboard.hpp"
#include "decomp/partition.hpp"
#include "harvey/simulation.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/io.hpp"
#include "lbm/simd.hpp"
#include "microbench/stream.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/server.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "runtime/parallel_solver.hpp"
#include "runtime/validation.hpp"
#include "sched/executor.hpp"
#include "util/table.hpp"

namespace {

using namespace hemo;

geometry::Geometry make_named_geometry(const std::string& name) {
  if (name == "cylinder") {
    return geometry::make_cylinder({.radius = 10, .length = 80});
  }
  if (name == "aorta") return geometry::make_aorta({});
  if (name == "cerebral") return geometry::make_cerebral({.depth = 5});
  throw PreconditionError("unknown geometry: " + name +
                          " (expected cylinder | aorta | cerebral)");
}

harvey::Simulation make_sim(const std::string& geometry_name) {
  harvey::SimulationOptions options;
  options.solver.tau = 0.8;
  return harvey::Simulation(make_named_geometry(geometry_name), options);
}

int cmd_instances() {
  TextTable t;
  t.set_header({"Abbrev", "Name", "Cores/node", "Total cores",
                "Interconnect (Gb/s)", "$/node-hr", "GPUs/node"});
  for (const auto& p : cluster::default_catalog()) {
    t.add_row({p.abbrev, p.name, TextTable::num(p.cores_per_node),
               TextTable::num(p.total_cores),
               TextTable::num(p.interconnect.value(), 0),
               TextTable::num(p.price_per_node_hour.value(), 2),
               p.gpu ? TextTable::num(p.gpu->gpus_per_node) : "-"});
  }
  t.print(std::cout);
  return 0;
}

int cmd_calibrate(const std::string& instance) {
  const auto& profile = cluster::instance_by_abbrev(instance);
  HEMO_LOG_INFO("calibrating %s ...", profile.name.c_str());
  const auto cal = core::calibrate_instance(profile);
  TextTable t;
  t.set_header({"Parameter", "Value", "Units"});
  t.add_row({"a1 (memory, per-core regime)", TextTable::num(cal.memory.a1, 2),
             "MB/s/thread"});
  t.add_row({"a2 (memory, saturated)", TextTable::num(cal.memory.a2, 2),
             "MB/s/thread"});
  t.add_row({"a3 (saturation knee)", TextTable::num(cal.memory.a3, 2),
             "threads"});
  t.add_row({"b internodal", TextTable::num(cal.inter.bandwidth, 2), "MB/s"});
  t.add_row({"l internodal", TextTable::num(cal.inter.latency, 2), "us"});
  t.add_row({"b intranodal", TextTable::num(cal.intra.bandwidth, 2), "MB/s"});
  t.add_row({"l intranodal", TextTable::num(cal.intra.latency, 2), "us"});
  if (cal.gpu_bandwidth) {
    t.add_row({"GPU device bandwidth",
               TextTable::num(cal.gpu_bandwidth->value(), 0), "MB/s"});
    t.add_row({"PCIe bandwidth", TextTable::num(cal.gpu_pcie->bandwidth, 0),
               "MB/s"});
    t.add_row({"PCIe latency", TextTable::num(cal.gpu_pcie->latency, 2),
               "us"});
  }
  t.print(std::cout);
  return 0;
}

int cmd_predict(const std::string& geometry_name,
                const std::string& instance, index_t ranks) {
  const auto& profile = cluster::instance_by_abbrev(instance);
  auto sim = make_sim(geometry_name);
  const auto cal = core::calibrate_instance(profile);
  const auto pred = core::predict_direct(
      sim.plan(ranks, profile.cores_per_node), cal);
  const auto meas = sim.measure(profile, ranks, 200);
  TextTable t;
  t.set_header({"Quantity", "Model", "Measured"});
  t.add_row({"MFLUPS", TextTable::num(pred.mflups.value(), 2),
             TextTable::num(meas.mflups.value(), 2)});
  t.add_row({"step time (us)",
             TextTable::num(pred.step_seconds.value() * 1e6, 1),
             TextTable::num(meas.step_seconds.value() * 1e6, 1)});
  t.add_row({"memory term (us)",
             TextTable::num(pred.t_mem.value() * 1e6, 1),
             TextTable::num(meas.critical.mem_s.value() * 1e6, 1)});
  t.add_row(
      {"comm term (us)", TextTable::num(pred.t_comm.value() * 1e6, 1),
       TextTable::num(
           (meas.critical.intra_s + meas.critical.inter_s).value() * 1e6,
           1)});
  t.print(std::cout);
  return 0;
}

int cmd_dashboard(const std::string& geometry_name, index_t timesteps) {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  core::Dashboard dashboard(std::move(profiles));
  auto sim = make_sim(geometry_name);
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  const auto workload = core::calibrate_workload(sim, cal_counts, 36);
  const std::vector<index_t> cores = {16, 36, 72, 144};
  const auto rows =
      dashboard.evaluate(workload, core::JobSpec{timesteps}, cores);

  TextTable t;
  t.set_header({"instance", "cores", "mflups", "time_h", "cost_usd",
                "mflups_per_usd_hr"});
  for (const auto& row : rows) {
    t.add_row({row.instance, TextTable::num(row.n_tasks),
               TextTable::num(row.prediction.mflups.value(), 1),
               TextTable::num(row.time_to_solution_s.value() / 3600.0, 3),
               TextTable::num(row.total_dollars.value(), 2),
               TextTable::num(row.mflups_per_dollar_hour.value(), 1)});
  }
  t.print(std::cout);

  const auto fastest =
      core::Dashboard::recommend(rows, core::Objective::kMaxThroughput);
  const auto cheapest =
      core::Dashboard::recommend(rows, core::Objective::kMinCost);
  std::cout << "\nfastest: " << fastest->instance << " @ "
            << fastest->n_tasks << " cores; cheapest: "
            << cheapest->instance << " @ " << cheapest->n_tasks
            << " cores ($"
            << TextTable::num(cheapest->total_dollars.value(), 2)
            << ")\n";
  return 0;
}

int cmd_simulate(const std::string& geometry_name, index_t steps,
                 const std::string& vtk_path) {
  auto sim = make_sim(geometry_name);
  std::cout << geometry_name << ": " << sim.mesh().num_points()
            << " fluid points\n";
  auto& solver = sim.solver();
  const auto t0 = std::chrono::steady_clock::now();
  solver.run(steps);
  const real_t seconds =
      std::chrono::duration<real_t>(std::chrono::steady_clock::now() - t0)
          .count();
  std::cout << steps << " steps in " << TextTable::num(seconds, 2)
            << " s = "
            << TextTable::num(
                   lbm::mflups(sim.mesh().num_points(), steps, seconds), 2)
            << " MFLUPS (local host)\n"
            << "mean flow speed: " << TextTable::num(solver.mean_speed(), 5)
            << " lattice units\n";
  if (!vtk_path.empty()) {
    lbm::write_vtk_file(solver, vtk_path);
    std::cout << "flow field written to " << vtk_path << "\n";
  }
  return 0;
}

/// Records which SIMD backend this host resolves for the LBM hot path as
/// a gauge (value = double-precision vector lanes, label = backend name),
/// so exported metrics identify the kernel flavor behind every timing.
void record_simd_backend_gauge(obs::MetricsRegistry& registry) {
  const lbm::Backend backend =
      lbm::simd::resolve_backend(lbm::Backend::kAuto);
  registry.set("lbm_simd_lanes",
               static_cast<real_t>(
                   lbm::simd::lanes(backend, sizeof(double))),
               {{"backend", lbm::to_string(backend)}});
}

int cmd_kernels(const std::string& geometry_name) {
  const auto print_backends = [](const char* label,
                                 const std::vector<lbm::Backend>& list) {
    std::cout << label << ":";
    for (const lbm::Backend b : list) std::cout << " " << lbm::to_string(b);
    std::cout << "\n";
  };
  print_backends("compiled", lbm::simd::compiled_backends());
  print_backends("detected", lbm::simd::detected_backends());
  const lbm::Backend selected =
      lbm::simd::resolve_backend(lbm::Backend::kAuto);
  std::cout << "selected: " << lbm::to_string(selected) << " ("
            << lbm::simd::lanes(selected, sizeof(float)) << "x float, "
            << lbm::simd::lanes(selected, sizeof(double))
            << "x double; override with HEMO_SIMD or "
               "KernelConfig::backend)\n";

  const auto geo = make_named_geometry(geometry_name);
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  std::cout << "\n" << geometry_name << ": " << mesh.num_points()
            << " fluid points; measuring STREAM COPY ...\n";
  const real_t copy_mbs = microbench::run_stream_local(1 << 22, 3, 1).copy;
  std::cout << "stream copy (1 thread): " << TextTable::num(copy_mbs, 0)
            << " MB/s\n\n";

  // Roofline inputs per kernel variant: Eq. 10 byte traffic per fluid
  // point and the bandwidth-implied MFLUPS ceiling it buys.
  TextTable t;
  t.set_header({"kernel", "precision", "bytes/FLUP", "MFLUPS bound"});
  for (const auto prop : {lbm::Propagation::kAB, lbm::Propagation::kAA}) {
    for (const auto layout : {lbm::Layout::kAoS, lbm::Layout::kSoA}) {
      for (const auto precision :
           {lbm::Precision::kDouble, lbm::Precision::kSingle}) {
        lbm::KernelConfig config;
        config.layout = layout;
        config.propagation = prop;
        config.precision = precision;
        const real_t bytes_per_flup =
            lbm::serial_bytes_per_step(mesh, config) /
            static_cast<real_t>(mesh.num_points());
        t.add_row({lbm::kernel_name(config), lbm::to_string(precision),
                   TextTable::num(bytes_per_flup, 1),
                   TextTable::num(copy_mbs / bytes_per_flup, 1)});
      }
    }
  }
  t.print(std::cout);
  return 0;
}

int cmd_run(const std::string& geometry_name, index_t steps, index_t ranks,
            bool rebalance, const std::string& profile_path) {
  HEMO_REQUIRE(steps > 0, "need at least one step");
  HEMO_REQUIRE(ranks >= 1, "need at least one rank");
  const auto geo = make_named_geometry(geometry_name);
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  lbm::SolverParams params;
  params.tau = 0.8;
  const auto part =
      decomp::make_partition(mesh, ranks, decomp::Strategy::kRcb);

  runtime::RuntimeOptions options;
  options.workload = geometry_name;
  options.rebalance.enabled = rebalance;
  runtime::ParallelSolver solver(mesh, part, params,
                                 std::span(geo.inlets), options);
  std::cout << geometry_name << ": " << mesh.num_points()
            << " fluid points on " << ranks << " rank"
            << (ranks == 1 ? "" : "s")
            << (rebalance ? " (dynamic rebalancing on)" : "") << "\n";

  obs::PhaseProfiler& profiler = obs::PhaseProfiler::global();
  if (!profile_path.empty()) profiler.start();

  const auto t0 = std::chrono::steady_clock::now();
  solver.run(steps);
  const real_t seconds =
      std::chrono::duration<real_t>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!profile_path.empty()) {
    profiler.stop();
    profiler.write_folded(profile_path);
    const real_t sampled_s =
        static_cast<real_t>(profiler.sample_count()) *
        profiler.period_seconds();
    HEMO_LOG_INFO("profile written to %s (%llu samples over %.3f s; "
                  "render with flamegraph.pl or speedscope)",
                  profile_path.c_str(),
                  static_cast<unsigned long long>(profiler.sample_count()),
                  sampled_s);
  }

  std::cout << steps << " steps in " << TextTable::num(seconds, 2)
            << " s = "
            << TextTable::num(lbm::mflups(mesh.num_points(), steps, seconds),
                              2)
            << " MFLUPS";
  if (rebalance) {
    std::cout << "; " << solver.rebalance_count() << " migration"
              << (solver.rebalance_count() == 1 ? "" : "s");
  }
  std::cout << "\n";

  // Close the measurement->model loop on this host: STREAM + PingPong
  // characterization feeds the Eq. 9 / Eq. 12 predictions the per-rank
  // wall-clock timings are compared against. Validate against the final
  // partition — it is what the measured timings ran on last.
  HEMO_LOG_INFO("characterizing host (STREAM + PingPong) ...");
  const auto host = runtime::LocalHostModel::measure();
  obs::MetricsRegistry registry;
  registry.enable(true);
  record_simd_backend_gauge(registry);
  const auto report =
      runtime::validate_run(mesh, solver.partition(), params.kernel, host,
                            solver.timings(), geometry_name, registry);

  TextTable t;
  t.set_header({"rank", "points", "t_mem meas (us)", "t_mem model (us)",
                "t_comm meas (us)", "t_comm model (us)", "step err"});
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const auto& v = report.ranks[r];
    t.add_row(
        {TextTable::num(static_cast<index_t>(r)),
         TextTable::num(
             static_cast<index_t>(solver.partition().points_of[r].size())),
         TextTable::num(v.measured_mem_s * 1e6, 1),
         TextTable::num(v.predicted.t_mem_s * 1e6, 1),
         TextTable::num(v.measured_comm_s * 1e6, 1),
         TextTable::num(v.predicted.t_comm_s * 1e6, 1),
         TextTable::num(v.step_rel_error * 100.0, 1) + "%"});
  }
  t.print(std::cout);
  std::cout << "step time: measured "
            << TextTable::num(report.measured_step_s * 1e6, 1)
            << " us, model "
            << TextTable::num(report.predicted_step_s * 1e6, 1)
            << " us; MFLUPS: measured "
            << TextTable::num(report.measured_mflups, 2) << ", model "
            << TextTable::num(report.predicted_mflups, 2) << "\n";
  return 0;
}

/// The live telemetry plane of one CLI invocation: metrics registry and
/// fault flight recorder armed, SLO watchdog evaluating on a cadence, and
/// the HTTP server up on 127.0.0.1. When the watchdog first turns
/// unhealthy the flight recorder dumps to flight-recorder-dump.txt (the
/// artifact CI uploads).
class LivePlane {
 public:
  explicit LivePlane(std::uint16_t port)
      : watchdog_(obs::MetricsRegistry::global()),
        server_(obs::MetricsRegistry::global(),
                obs::ServerOptions{.host = "127.0.0.1", .port = port}) {
    obs::MetricsRegistry::global().enable(true);
    obs::FlightRecorder::global().enable(true);
    watchdog_.on_unhealthy([] {
      obs::FlightRecorder& recorder = obs::FlightRecorder::global();
      recorder.note("watchdog", "health entered unhealthy");
      recorder.dump_to_file("flight-recorder-dump.txt");
      HEMO_LOG_ERROR(
          "watchdog unhealthy: flight recorder dumped to "
          "flight-recorder-dump.txt");
    });
    server_.set_watchdog(&watchdog_);
    server_.start();
    watchdog_.start(0.5);
  }

  ~LivePlane() {
    watchdog_.stop();
    server_.stop();
  }

  /// Keeps serving: `seconds` < 0 means until the process is killed.
  void hold(real_t seconds) const {
    if (seconds < 0.0) {
      HEMO_LOG_INFO("serving on port %u until killed (ctrl-c to stop)",
                    static_cast<unsigned>(server_.port()));
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    std::this_thread::sleep_for(std::chrono::duration<real_t>(seconds));
  }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  obs::Watchdog watchdog_;
  obs::TelemetryServer server_;
};

int cmd_schedule(const std::string& geometry_name, index_t n_jobs,
                 index_t timesteps, std::uint64_t seed, bool csv,
                 const std::string& trace_path,
                 const std::string& metrics_path, int listen_port,
                 real_t hold_s) {
  // Telemetry is opt-in per invocation: enabling costs locks and
  // allocations on every instrumented path, and the default run must
  // keep the golden --csv bytes and bench numbers untouched.
  if (!trace_path.empty()) obs::TraceRecorder::global().enable(true);
  if (!metrics_path.empty()) obs::MetricsRegistry::global().enable(true);
  record_simd_backend_gauge(obs::MetricsRegistry::global());
  std::unique_ptr<LivePlane> plane;
  if (listen_port >= 0) {
    plane = std::make_unique<LivePlane>(
        static_cast<std::uint16_t>(listen_port));
    HEMO_LOG_INFO(
        "telemetry plane on http://127.0.0.1:%u "
        "(/metrics /metrics.json /healthz /status)",
        static_cast<unsigned>(plane->port()));
  }

  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  sched::SchedulerConfig config;
  config.objective = core::Objective::kMinCost;
  config.core_counts = {16, 36, 72, 144};
  sched::CampaignScheduler scheduler(std::move(profiles), config);
  auto geometry = make_named_geometry(geometry_name);
  // Progress goes to stderr (via the logger) so --csv output stays clean
  // for golden files.
  HEMO_LOG_INFO("calibrating %s (phase 1 + pilots) ...",
                geometry_name.c_str());
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  scheduler.register_workload(geometry_name, std::move(geometry), cal_counts);

  std::vector<sched::CampaignJobSpec> jobs;
  for (index_t i = 0; i < n_jobs; ++i) {
    sched::CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = geometry_name;
    spec.timesteps = timesteps;
    spec.allow_spot = (i % 3 == 1);
    jobs.push_back(spec);
  }

  sched::EngineConfig engine_config;
  engine_config.seed = seed;
  sched::CampaignEngine engine(scheduler, engine_config);
  const sched::CampaignReport report = engine.run(std::move(jobs));
  if (csv) {
    std::cout << report.to_csv();
  } else {
    report.print(std::cout);
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder::global().write_chrome_json(trace_path);
    HEMO_LOG_INFO("trace written to %s (open in ui.perfetto.dev)",
                  trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    obs::write_metrics_jsonl(obs::MetricsRegistry::global(), metrics_path);
    HEMO_LOG_INFO("metrics written to %s", metrics_path.c_str());
  }
  if (plane != nullptr && hold_s != 0.0) plane->hold(hold_s);
  return 0;
}

int cmd_check(index_t cases, std::uint64_t seed) {
  check::PropertyConfig config;
  config.seed = seed;
  config.cases = cases;
  // The oracle runner stores per-oracle wall time in the registry; the
  // results themselves stay a pure function of the seed.
  obs::MetricsRegistry::global().enable(true);
  HEMO_LOG_INFO("calibrating oracle context (3 workloads, CPU catalog) ...");
  auto ctx = check::OracleContext::make_default();
  bool all_passed = true;
  for (const auto& result : check::run_all_oracles(ctx, config)) {
    std::cout << result.summary() << "\n";
    all_passed = all_passed && result.passed;
  }

  std::vector<std::pair<std::string, real_t>> timings;
  for (const auto& snap : obs::MetricsRegistry::global().snapshot()) {
    if (snap.name != "check_oracle_wall_seconds") continue;
    std::string oracle;
    for (const auto& [k, v] : snap.labels) {
      if (k == "oracle") oracle = v;
    }
    timings.emplace_back(oracle, snap.value);
  }
  std::sort(timings.begin(), timings.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (!timings.empty()) {
    std::cout << "\noracle wall time (slowest first):\n";
    TextTable t;
    t.set_header({"oracle", "wall_s"});
    for (const auto& [oracle, seconds] : timings) {
      t.add_row({oracle, TextTable::num(seconds, 3)});
    }
    t.print(std::cout);
  }
  std::cout << (all_passed ? "check: all oracles passed\n"
                           : "check: FAILURES above\n");
  return all_passed ? 0 : 1;
}

/// Sort weight of one series for `--sort`: histograms by total recorded
/// time/amount, counters and gauges by value — the same slowest-first
/// ordering the `check` command prints for oracle wall time.
real_t series_weight(const obs::MetricSnapshot& snap) {
  return snap.kind == obs::MetricKind::kHistogram ? snap.histogram.sum
                                                  : snap.value;
}

int cmd_metrics(const std::string& path, const std::string& filter,
                bool slowest_first, const std::string& format) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::cerr << "error: cannot read metrics file: " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::vector<obs::MetricSnapshot> snapshots =
      obs::parse_metrics_jsonl(buffer.str());
  if (!filter.empty()) {
    std::erase_if(snapshots, [&filter](const obs::MetricSnapshot& snap) {
      return !obs::series_matches(filter, snap);
    });
  }
  if (snapshots.empty()) {
    if (filter.empty()) {
      std::cerr << "error: no metrics found in " << path << "\n";
    } else {
      std::cerr << "error: no series match --filter '" << filter << "' in "
                << path << "\n";
    }
    return 1;
  }
  if (slowest_first) {
    // Stable so ties keep the canonical key order of the snapshot.
    std::stable_sort(snapshots.begin(), snapshots.end(),
                     [](const auto& a, const auto& b) {
                       return series_weight(a) > series_weight(b);
                     });
  }
  if (format == "prom") {
    std::cout << obs::to_prometheus(snapshots);
    return 0;
  }
  if (format == "json") {
    std::cout << obs::to_metrics_json(snapshots) << "\n";
    return 0;
  }
  TextTable t;
  t.set_header(
      {"metric", "labels", "type", "value/count", "sum", "p50", "p99"});
  for (const obs::MetricSnapshot& snap : snapshots) {
    std::string labels;
    for (const auto& [key, value] : snap.labels) {
      if (!labels.empty()) labels += ',';
      labels += key;
      labels += '=';
      labels += value;
    }
    const bool histogram = snap.kind == obs::MetricKind::kHistogram;
    const char* type = snap.kind == obs::MetricKind::kCounter ? "counter"
                       : snap.kind == obs::MetricKind::kGauge ? "gauge"
                                                              : "histogram";
    t.add_row({snap.name, labels.empty() ? "-" : labels, type,
               histogram
                   ? TextTable::num(static_cast<index_t>(snap.histogram.count))
                   : TextTable::num(snap.value, 6),
               histogram ? TextTable::num(snap.histogram.sum, 6) : "-",
               histogram ? TextTable::num(snap.histogram.quantile(0.5), 6)
                         : "-",
               histogram ? TextTable::num(snap.histogram.quantile(0.99), 6)
                         : "-"});
  }
  t.print(std::cout);
  std::cout << snapshots.size() << " series\n";
  return 0;
}

int cmd_mutate(index_t cases, std::uint64_t seed) {
  check::PropertyConfig config;
  config.seed = seed;
  config.cases = cases;
  HEMO_LOG_INFO("calibrating oracle context (3 workloads, CPU catalog) ...");
  auto ctx = check::OracleContext::make_default();
  const check::MutationReport report =
      check::run_mutation_suite(ctx, config);
  std::cout << report.summary();
  return report.all_detected() ? 0 : 1;
}

int cmd_nemesis(index_t cases, std::uint64_t seed, const std::string& storm,
                const std::string& artifacts_dir) {
  check::PropertyConfig config;
  config.seed = seed;
  config.cases = cases;

  // Teeth first: a harness whose checker cannot convict a known-buggy
  // engine proves nothing about a passing storm sweep.
  const nemesis::SelfTestReport self_test =
      nemesis::run_protocol_self_test(seed);
  std::cout << self_test.summary();
  bool all_passed = self_test.all_detected();

  std::vector<std::string> storms;
  if (storm.empty()) {
    storms = nemesis::storm_names();
  } else {
    storms.push_back(storm);
  }
  for (const std::string& name : storms) {
    std::shared_ptr<nemesis::NemesisFailure> failure;
    const check::PropertyResult result =
        nemesis::nemesis_property(name, config, &failure);
    std::cout << result.summary() << "\n";
    all_passed = all_passed && result.passed;
    if (failure != nullptr) {
      std::cout << failure->verdict.check.summary();
      if (!artifacts_dir.empty()) {
        const std::string dir = artifacts_dir + "/" + name;
        for (const std::string& path :
             nemesis::write_failure_artifacts(*failure, dir)) {
          std::cout << "artifact: " << path << "\n";
        }
      }
    }
  }
  std::cout << (all_passed ? "nemesis: all storms passed\n"
                           : "nemesis: FAILURES above\n");
  return all_passed ? 0 : 1;
}

int usage() {
  std::cerr << "usage:\n"
            << "  hemocloud_cli instances\n"
            << "  hemocloud_cli calibrate <instance>\n"
            << "  hemocloud_cli predict <geometry> <instance> <ranks>\n"
            << "  hemocloud_cli dashboard <geometry> <timesteps>\n"
            << "  hemocloud_cli simulate <geometry> <steps> [out.vtk]\n"
            << "  hemocloud_cli run <geometry> <steps> [--ranks N] "
               "[--rebalance]\n"
            << "                    [--profile out.folded]\n"
            << "  hemocloud_cli schedule <geometry> <n_jobs> <timesteps> "
               "[seed] [--csv]\n"
            << "                         [--trace out.json] "
               "[--metrics out.jsonl]\n"
            << "                         [--listen PORT] [--hold SEC]\n"
            << "    quick-start: hemocloud_cli schedule cylinder 6 20000 42 "
               "--listen 9100 --hold -1\n"
            << "  hemocloud_cli metrics <file.jsonl> "
               "[--filter 'name{label=...}']\n"
            << "                        [--sort] [--format table|prom|json]\n"
            << "  hemocloud_cli kernels [geometry]\n"
            << "  hemocloud_cli check [cases] [seed]\n"
            << "  hemocloud_cli mutate [cases] [seed]\n"
            << "  hemocloud_cli nemesis [--seed S] [--cases N] "
               "[--storm name] [--artifacts dir]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "instances") return cmd_instances();
    if (cmd == "calibrate" && argc == 3) return cmd_calibrate(argv[2]);
    if (cmd == "predict" && argc == 5) {
      return cmd_predict(argv[2], argv[3], std::atol(argv[4]));
    }
    if (cmd == "dashboard" && argc == 4) {
      return cmd_dashboard(argv[2], std::atol(argv[3]));
    }
    if (cmd == "simulate" && (argc == 4 || argc == 5)) {
      return cmd_simulate(argv[2], std::atol(argv[3]),
                          argc == 5 ? argv[4] : "");
    }
    if (cmd == "run" && argc >= 4 && argc <= 9) {
      hemo::index_t ranks = 4;
      bool rebalance = false;
      std::string profile_path;
      for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--ranks" && i + 1 < argc) {
          ranks = std::atol(argv[++i]);
        } else if (arg == "--rebalance") {
          rebalance = true;
        } else if (arg == "--profile" && i + 1 < argc) {
          profile_path = argv[++i];
        } else {
          return usage();
        }
      }
      return cmd_run(argv[2], std::atol(argv[3]), ranks, rebalance,
                     profile_path);
    }
    if (cmd == "schedule" && argc >= 5 && argc <= 15) {
      bool csv = false;
      std::uint64_t seed = 42;
      bool seed_given = false;
      std::string trace_path, metrics_path;
      int listen_port = -1;
      hemo::real_t hold_s = 0.0;
      for (int i = 5; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--csv") {
          csv = true;
        } else if (arg == "--trace" && i + 1 < argc) {
          trace_path = argv[++i];
        } else if (arg == "--metrics" && i + 1 < argc) {
          metrics_path = argv[++i];
        } else if (arg == "--listen" && i + 1 < argc) {
          listen_port = std::atoi(argv[++i]);
        } else if (arg == "--hold" && i + 1 < argc) {
          hold_s = std::atof(argv[++i]);
        } else if (!seed_given && !arg.starts_with("--")) {
          // parse_seed falls back on anything that is not a number; two
          // different fallbacks expose that instead of running with one.
          seed = hemo::parse_seed(argv[i], 0);
          if (seed != hemo::parse_seed(argv[i], 1)) return usage();
          seed_given = true;
        } else {
          return usage();
        }
      }
      return cmd_schedule(argv[2], std::atol(argv[3]), std::atol(argv[4]),
                          seed, csv, trace_path, metrics_path, listen_port,
                          hold_s);
    }
    if (cmd == "metrics" && argc >= 3) {
      std::string filter;
      std::string format = "table";
      bool slowest_first = false;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--filter" && i + 1 < argc) {
          filter = argv[++i];
        } else if (arg == "--sort") {
          slowest_first = true;
        } else if (arg == "--format" && i + 1 < argc) {
          format = argv[++i];
        } else {
          return usage();
        }
      }
      if (format != "table" && format != "prom" && format != "json") {
        return usage();
      }
      return cmd_metrics(argv[2], filter, slowest_first, format);
    }
    if (cmd == "kernels" && (argc == 2 || argc == 3)) {
      return cmd_kernels(argc == 3 ? argv[2] : "cylinder");
    }
    if (cmd == "check" && argc >= 2 && argc <= 4) {
      return cmd_check(argc > 2 ? std::atol(argv[2]) : 40,
                       argc > 3 ? hemo::parse_seed(argv[3], 42)
                                : hemo::global_seed());
    }
    if (cmd == "mutate" && argc >= 2 && argc <= 4) {
      return cmd_mutate(argc > 2 ? std::atol(argv[2]) : 40,
                        argc > 3 ? hemo::parse_seed(argv[3], 42)
                                 : hemo::global_seed());
    }
    if (cmd == "nemesis") {
      hemo::index_t cases = 6;
      std::uint64_t seed = hemo::global_seed();
      std::string storm, artifacts_dir;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed" && i + 1 < argc) {
          seed = hemo::parse_seed(argv[++i], seed);
        } else if (arg == "--cases" && i + 1 < argc) {
          cases = std::atol(argv[++i]);
        } else if (arg == "--storm" && i + 1 < argc) {
          storm = argv[++i];
        } else if (arg == "--artifacts" && i + 1 < argc) {
          artifacts_dir = argv[++i];
        } else {
          return usage();
        }
      }
      return cmd_nemesis(cases, seed, storm, artifacts_dir);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
