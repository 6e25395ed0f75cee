// Machine-readable LBM kernel benchmark v2: MFLUPS per kernel variant x
// SIMD backend x thread count on a benchmark geometry, each result paired
// with its measured roofline bound, written as BENCH_lbm.json.
//
// This is the hot-path performance baseline of the repository: CI's
// perf-smoke job runs it on the cylinder and gates merges with
// tools/check_bench_regression.py against the committed baseline (soft
// gate — only large regressions fail, since shared CI runners are noisy).
//
// Roofline methodology: each variant's bytes-per-FLUP comes from the
// paper's access counts (lbm/access_counts.hpp, Eq. 10 byte traffic over
// the mesh), the bandwidth from a real STREAM COPY run at the same thread
// count (microbench::run_stream_local), so
//   mflups_bound     = stream_copy_MBps / bytes_per_flup
//   roofline_fraction = mflups / mflups_bound.
// Fractions above 1 are possible — and recorded, not clamped — when the
// working set is cache-resident: the bound assumes DRAM streaming.
//
// Honesty rules: every result records the *effective* backend and thread
// count the solver actually ran (Solver::backend() / Solver::threads()),
// never the request. Variants whose hot path cannot use a vector backend
// (AoS layouts, the reference path) appear only under "scalar", and the
// regression checker refuses to compare results across different
// (backend, threads) coordinates.
//
// Usage:
//   bench_lbm_json [--geometry=cylinder] [--out=BENCH_lbm.json]
//                  [--repetitions=3] [--min-time=0.2] [--small]
//                  [--threads=1,2,4,8] [--backends=scalar,avx2,...]
//
// --small shrinks the geometry (and is recorded in the JSON, so the
// regression checker refuses to compare baselines of different shapes).
// --backends defaults to every backend detected on this host.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "geometry/generators.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/mesh.hpp"
#include "lbm/mesh_segments.hpp"
#include "lbm/simd.hpp"
#include "lbm/solver.hpp"
#include "microbench/stream.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace {

using namespace hemo;
using Clock = std::chrono::steady_clock;

struct Options : bench::JsonBenchOptions {
  std::vector<index_t> threads = {1, 2, 4, 8};
  std::vector<lbm::Backend> backends;  // empty = detected
};

/// The comma-separated items of `csv`, each read by `read_item`; nothing
/// when the list is empty or an item does not read.
template <typename T, typename ReadItem>
std::optional<std::vector<T>> read_list(std::string_view csv,
                                        ReadItem read_item) {
  std::vector<T> out;
  for (const auto item : std::views::split(csv, ',')) {
    const std::optional<T> value =
        read_item(std::string_view(item.begin(), item.end()));
    if (!value) return std::nullopt;
    out.push_back(*value);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

/// A thread count of at least one.
std::optional<index_t> read_threads(std::string_view text) {
  const auto count = read_number<index_t>(text);
  if (count && *count >= 1) return count;
  return std::nullopt;
}

/// A backend this host can run the benchmark's tile kernels on.
std::optional<lbm::Backend> read_backend(std::string_view text) {
  const auto backend = lbm::simd::parse_backend(text);
  if (backend && *backend != lbm::Backend::kAuto &&
      lbm::simd::cpu_supports(*backend) &&
      lbm::simd::tile_kernel<float>(*backend, false) != nullptr) {
    return backend;
  }
  return std::nullopt;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.out = "BENCH_lbm.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (opt.read(arg)) continue;
    if (const auto list = Options::flag_value(arg, "--threads=")) {
      const auto threads = read_list<index_t>(*list, read_threads);
      if (!threads) bench::reject_argument(arg);
      opt.threads = *threads;
    } else if (const auto list = Options::flag_value(arg, "--backends=")) {
      const auto backends = read_list<lbm::Backend>(*list, read_backend);
      if (!backends) bench::reject_argument(arg);
      opt.backends = *backends;
    } else {
      bench::reject_argument(arg);
    }
  }
  if (opt.backends.empty()) opt.backends = lbm::simd::detected_backends();
  return opt;
}

struct VariantResult {
  lbm::KernelConfig config;
  lbm::Backend backend = lbm::Backend::kScalar;  ///< effective, not request
  index_t threads = 1;                           ///< effective team size
  real_t mflups = 0.0;                           ///< best repetition
  index_t steps = 0;             ///< steps of the best repetition
  real_t seconds = 0.0;          ///< elapsed of the best repetition
  real_t bytes_per_flup = 0.0;   ///< Eq. 10 traffic / point
  real_t mflups_bound = 0.0;     ///< STREAM-COPY roofline at this team size
  real_t roofline_fraction = 0.0;
};

/// Times one (variant, backend, threads) cell: per repetition, step in
/// pairs (keeping AA parity even) until min_time elapses; report the best
/// repetition's MFLUPS, standard benchmark practice for noisy shared
/// hosts.
template <typename T>
VariantResult time_variant(const lbm::FluidMesh& mesh,
                           const geometry::Geometry& geo,
                           const lbm::KernelConfig& config, index_t threads,
                           const Options& opt) {
  lbm::SolverParams params;
  params.kernel = config;
  params.num_threads = threads;
  lbm::Solver<T> solver(mesh, params, std::span(geo.inlets));
  solver.run(4);  // warmup: touch every page, settle the branch predictors

  VariantResult result;
  result.config = config;
  result.backend = solver.backend();
  result.threads = solver.threads();
  for (index_t rep = 0; rep < opt.repetitions; ++rep) {
    index_t steps = 0;
    const auto t0 = Clock::now();
    real_t elapsed = 0.0;
    do {
      solver.run(2);
      steps += 2;
      elapsed = std::chrono::duration<real_t>(Clock::now() - t0).count();
    } while (elapsed < opt.min_time);
    const real_t rate = lbm::mflups(mesh.num_points(), steps, elapsed);
    if (rate > result.mflups) {
      result.mflups = rate;
      result.steps = steps;
      result.seconds = elapsed;
    }
  }
  return result;
}

void write_backend_list(std::ostream& os,
                        const std::vector<lbm::Backend>& backends) {
  os << "[";
  for (std::size_t i = 0; i < backends.size(); ++i) {
    os << "\"" << to_string(backends[i]) << "\""
       << (i + 1 < backends.size() ? ", " : "");
  }
  os << "]";
}

void write_json(std::ostream& os, const Options& opt,
                const lbm::FluidMesh& mesh, const lbm::SegmentedMesh& seg,
                const std::map<index_t, real_t>& stream_copy,
                const std::vector<VariantResult>& results) {
  const auto& c = seg.counts();
  os << "{\n";
  os << "  \"schema\": \"hemo-bench-lbm/2\",\n";
  os << "  \"host\": {\n";
  os << "    \"compiler\": \"" << bench::json_escape(__VERSION__) << "\",\n";
  os << "    \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n";
#ifdef _OPENMP
  os << "    \"openmp\": true,\n";
  os << "    \"omp_max_threads\": " << omp_get_max_threads() << ",\n";
#else
  os << "    \"openmp\": false,\n";
  os << "    \"omp_max_threads\": 1,\n";
#endif
  os << "    \"simd_compiled\": ";
  write_backend_list(os, lbm::simd::compiled_backends());
  os << ",\n";
  os << "    \"simd_detected\": ";
  write_backend_list(os, lbm::simd::detected_backends());
  os << "\n";
  os << "  },\n";
  os << "  \"config\": {\n";
  os << "    \"repetitions\": " << opt.repetitions << ",\n";
  os << "    \"min_time_seconds\": " << opt.min_time << ",\n";
  os << "    \"small\": " << (opt.small ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"stream_copy_mbs\": {\n";
  for (auto it = stream_copy.begin(); it != stream_copy.end(); ++it) {
    os << "    \"" << it->first << "\": " << it->second
       << (std::next(it) != stream_copy.end() ? "," : "") << "\n";
  }
  os << "  },\n";
  os << "  \"geometry\": {\n";
  os << "    \"name\": \"" << bench::json_escape(opt.geometry) << "\",\n";
  os << "    \"points\": " << mesh.num_points() << ",\n";
  os << "    \"segments\": {\n";
  os << "      \"bulk_interior\": " << c.bulk_interior << ",\n";
  os << "      \"bulk_edge\": " << c.bulk_edge << ",\n";
  os << "      \"wall\": " << c.wall << ",\n";
  os << "      \"inlet\": " << c.inlet << ",\n";
  os << "      \"outlet\": " << c.outlet << ",\n";
  os << "      \"spans\": " << seg.spans().size() << ",\n";
  os << "      \"mean_span_length\": " << seg.mean_span_length() << ",\n";
  os << "      \"max_span_length\": " << seg.max_span_length() << "\n";
  os << "    }\n";
  os << "  },\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    os << "    {\"kernel\": \"" << lbm::kernel_name(r.config)
       << "\", \"propagation\": \"" << to_string(r.config.propagation)
       << "\", \"layout\": \"" << to_string(r.config.layout)
       << "\", \"precision\": \"" << to_string(r.config.precision)
       << "\", \"path\": \"" << to_string(r.config.path)
       << "\", \"backend\": \"" << to_string(r.backend)
       << "\", \"threads\": " << r.threads
       << ", \"mflups\": " << r.mflups << ", \"steps\": " << r.steps
       << ", \"seconds\": " << r.seconds
       << ", \"bytes_per_flup\": " << r.bytes_per_flup
       << ", \"mflups_bound\": " << r.mflups_bound
       << ", \"roofline_fraction\": " << r.roofline_fraction << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const geometry::Geometry geo = opt.build_geometry();
  const lbm::FluidMesh mesh = lbm::FluidMesh::build(geo.grid);
  const lbm::SegmentedMesh seg = lbm::SegmentedMesh::build(mesh);

  std::cerr << "bench_lbm_json: " << opt.geometry << ", "
            << mesh.num_points() << " points, "
            << seg.bulk_count() << " bulk-interior across "
            << seg.spans().size() << " spans (mean "
            << seg.mean_span_length() << ")\n";

  // One real STREAM COPY measurement per requested team size — the
  // denominator of every roofline fraction at that thread count.
  std::map<index_t, real_t> stream_copy;
  for (const index_t t : opt.threads) {
    stream_copy[t] = microbench::run_stream_local(1 << 22, 3, t).copy;
    std::cerr << "  stream copy @" << t << " threads: " << stream_copy[t]
              << " MB/s\n";
  }

  std::vector<VariantResult> results;
  for (const auto path :
       {lbm::KernelPath::kSegmented, lbm::KernelPath::kReference}) {
    for (const auto prop : {lbm::Propagation::kAB, lbm::Propagation::kAA}) {
      for (const auto layout : {lbm::Layout::kAoS, lbm::Layout::kSoA}) {
        for (const auto precision :
             {lbm::Precision::kDouble, lbm::Precision::kSingle}) {
          // Vector backends exist only on the segmented SoA hot path;
          // everything else runs scalar and is recorded once, not
          // duplicated under backend names it cannot execute.
          const bool vectorizable = path == lbm::KernelPath::kSegmented &&
                                    layout == lbm::Layout::kSoA;
          for (const lbm::Backend backend : opt.backends) {
            if (!vectorizable && backend != lbm::Backend::kScalar) continue;
            for (const index_t threads : opt.threads) {
              lbm::KernelConfig config;
              config.layout = layout;
              config.propagation = prop;
              config.precision = precision;
              config.path = path;
              config.backend = backend;
              VariantResult r =
                  precision == lbm::Precision::kDouble
                      ? time_variant<double>(mesh, geo, config, threads, opt)
                      : time_variant<float>(mesh, geo, config, threads, opt);
              r.bytes_per_flup =
                  lbm::serial_bytes_per_step(mesh, config) /
                  static_cast<real_t>(mesh.num_points());
              r.mflups_bound = stream_copy.at(threads) / r.bytes_per_flup;
              r.roofline_fraction = r.mflups / r.mflups_bound;
              std::cerr << "  " << lbm::kernel_name(config) << " "
                        << to_string(precision) << " "
                        << to_string(r.backend) << " t" << r.threads << ": "
                        << r.mflups << " MFLUPS (rf "
                        << r.roofline_fraction << ")\n";
              results.push_back(r);
            }
          }
        }
      }
    }
  }

  std::ofstream os(opt.out);
  if (!os) {
    std::cerr << "cannot open " << opt.out << "\n";
    return 1;
  }
  write_json(os, opt, mesh, seg, stream_copy, results);
  std::cerr << "wrote " << opt.out << "\n";
  return 0;
}
