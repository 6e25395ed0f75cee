// Machine-readable strong-scaling benchmark of the threaded parallel
// runtime: measured MFLUPS, per-rank communication share, and busy-time
// imbalance per rank count, written as BENCH_runtime.json.
//
// Complements bench_lbm_json (serial kernel hot path) with the real
// threaded execution the paper's scaling figures are about: CI's
// perf-smoke job runs it argument-free and gates merges through
// tools/check_bench_regression.py against the committed baseline (soft
// gate — strong-scaling numbers on shared runners with unknown core
// counts are noisy, so only order-of-magnitude collapses fail).
//
// Usage:
//   bench_runtime_json [--geometry=cylinder] [--out=BENCH_runtime.json]
//                      [--repetitions=3] [--min-time=0.2] [--small]
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "decomp/partition.hpp"
#include "geometry/generators.hpp"
#include "lbm/mesh.hpp"
#include "lbm/solver.hpp"
#include "runtime/parallel_solver.hpp"

namespace {

using namespace hemo;
using Clock = std::chrono::steady_clock;

using Options = bench::JsonBenchOptions;

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.out = "BENCH_runtime.json";
  for (int i = 1; i < argc; ++i) {
    if (!opt.read(argv[i])) bench::reject_argument(argv[i]);
  }
  return opt;
}

struct ScalingResult {
  index_t ranks = 0;
  real_t mflups = 0.0;   ///< best repetition
  index_t steps = 0;     ///< steps of the best repetition
  real_t seconds = 0.0;  ///< elapsed of the best repetition
  real_t imbalance = 1.0;            ///< max/mean cumulative busy time
  real_t comm_share_mean = 0.0;      ///< mean of per-rank t_comm/busy
  real_t comm_share_max = 0.0;
  std::vector<real_t> comm_share;    ///< per rank
};

ScalingResult time_ranks(const lbm::FluidMesh& mesh,
                         const geometry::Geometry& geo, index_t n_ranks,
                         const Options& opt) {
  const auto part =
      decomp::make_partition(mesh, n_ranks, decomp::Strategy::kRcb);
  runtime::ParallelSolver solver(mesh, part, lbm::SolverParams{},
                                 std::span(geo.inlets));
  solver.run(4);  // warmup: touch every page, spin up the thread team

  ScalingResult result;
  result.ranks = n_ranks;
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

  // Communication share and imbalance over the cumulative run (warmup
  // included; the shares converge immediately).
  real_t max_busy = 0.0, sum_busy = 0.0;
  for (const auto& timing : solver.timings()) {
    const real_t busy = timing.busy_s();
    result.comm_share.push_back(busy > 0.0 ? timing.comm_s() / busy : 0.0);
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
  }
  for (const real_t share : result.comm_share) {
    result.comm_share_mean += share;
    result.comm_share_max = std::max(result.comm_share_max, share);
  }
  result.comm_share_mean /= static_cast<real_t>(result.comm_share.size());
  const real_t mean_busy = sum_busy / static_cast<real_t>(n_ranks);
  result.imbalance = mean_busy > 0.0 ? max_busy / mean_busy : 1.0;
  return result;
}

void write_json(std::ostream& os, const Options& opt,
                const lbm::FluidMesh& mesh,
                const std::vector<ScalingResult>& results) {
  os << "{\n";
  os << "  \"schema\": \"hemo-bench-runtime/1\",\n";
  os << "  \"host\": {\n";
  os << "    \"compiler\": \"" << bench::json_escape(__VERSION__) << "\",\n";
  os << "    \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << "\n";
  os << "  },\n";
  os << "  \"config\": {\n";
  os << "    \"repetitions\": " << opt.repetitions << ",\n";
  os << "    \"min_time_seconds\": " << opt.min_time << ",\n";
  os << "    \"small\": " << (opt.small ? "true" : "false") << "\n";
  os << "  },\n";
  os << "  \"geometry\": {\n";
  os << "    \"name\": \"" << bench::json_escape(opt.geometry) << "\",\n";
  os << "    \"points\": " << mesh.num_points() << "\n";
  os << "  },\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    os << "    {\"ranks\": " << r.ranks << ", \"mflups\": " << r.mflups
       << ", \"steps\": " << r.steps << ", \"seconds\": " << r.seconds
       << ", \"imbalance\": " << r.imbalance
       << ", \"comm_share_mean\": " << r.comm_share_mean
       << ", \"comm_share_max\": " << r.comm_share_max
       << ", \"comm_share\": [";
    for (std::size_t s = 0; s < r.comm_share.size(); ++s) {
      os << (s ? ", " : "") << r.comm_share[s];
    }
    os << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const geometry::Geometry geo = opt.build_geometry();
  const lbm::FluidMesh mesh = lbm::FluidMesh::build(geo.grid);

  std::cerr << "bench_runtime_json: " << opt.geometry << ", "
            << mesh.num_points() << " points, "
            << std::thread::hardware_concurrency() << " hardware threads\n";

  std::vector<ScalingResult> results;
  for (const index_t ranks : {1, 2, 4, 8}) {
    const ScalingResult r = time_ranks(mesh, geo, ranks, opt);
    std::cerr << "  ranks=" << ranks << ": " << r.mflups
              << " MFLUPS, imbalance " << r.imbalance << ", comm share "
              << r.comm_share_mean << "\n";
    results.push_back(r);
  }

  std::ofstream os(opt.out);
  if (!os) {
    std::cerr << "cannot open " << opt.out << "\n";
    return 1;
  }
  write_json(os, opt, mesh, results);
  std::cerr << "wrote " << opt.out << "\n";
  return 0;
}
