// Race-detector stress for the threaded parallel runtime: oversubscribed
// rank counts, rebalance storms (a migration nearly every window), and
// concurrent independent solvers. Runs under `ctest -L tsan`; the CI
// thread-sanitizer job builds with HEMO_SANITIZE=thread. The assertions
// are the same bit-identity contracts as tier 1 — they must hold under
// any interleaving the preempting scheduler produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "runtime/parallel_solver.hpp"

namespace hemo::runtime {
namespace {

lbm::SolverParams base_params() {
  lbm::SolverParams params;
  params.tau = 0.8;
  return params;
}

TEST(RuntimeStress, OversubscribedRanksStayBitIdentical) {
  // Far more rank threads than cores: every mailbox wait and barrier epoch
  // gets exercised under forced preemption.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 20});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto hw =
      static_cast<index_t>(std::max(1u, std::thread::hardware_concurrency()));
  const index_t n_ranks = std::min<index_t>(2 * hw + 6, 16);
  const auto part =
      decomp::make_partition(mesh, n_ranks, decomp::Strategy::kRcb);

  // Both layouts: SoA ranks pack/unpack direction-major rows and run the
  // SIMD tile kernels.
  for (const lbm::Layout layout : {lbm::Layout::kAoS, lbm::Layout::kSoA}) {
    SCOPED_TRACE(lbm::to_string(layout));
    auto params = base_params();
    params.kernel.layout = layout;
    lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
    ParallelSolver parallel(mesh, part, params, std::span(geo.inlets));
    serial.run(25);
    parallel.run(25);
    EXPECT_EQ(parallel.export_state(), serial.export_state());
  }
}

TEST(RuntimeStress, RebalanceStormStaysBitIdentical) {
  // Maximally aggressive controller: tiny window, hair-trigger threshold,
  // no patience — topology rebuilds happen constantly while rank threads
  // run. The barrier completion step must make every rebuild race-free.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 20});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto params = base_params();
  RuntimeOptions options;
  options.rebalance.enabled = true;
  options.rebalance.window = 2;
  options.rebalance.threshold = 1.01;
  options.rebalance.patience = 1;
  options.rebalance.min_block = 1;
  options.rebalance.move_fraction = 0.5;
  ParallelSolver parallel(
      mesh, decomp::make_partition(mesh, 4, decomp::Strategy::kSlab), params,
      std::span(geo.inlets), options);
  parallel.run(80);

  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  serial.run(80);
  EXPECT_EQ(parallel.export_state(), serial.export_state());
  // On a real scheduler the hair trigger fires essentially every window;
  // don't assert an exact count, just that the machinery engaged and the
  // partition stayed valid.
  index_t total = 0;
  for (const auto& points : parallel.partition().points_of) {
    EXPECT_FALSE(points.empty());
    total += static_cast<index_t>(points.size());
  }
  EXPECT_EQ(total, mesh.num_points());
}

TEST(RuntimeStress, ConcurrentSolversDoNotInterfere) {
  // Two independent solvers with their own thread teams running at once:
  // mailboxes, barriers, and timings must be fully instance-local.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto params = base_params();
  ParallelSolver a(mesh,
                   decomp::make_partition(mesh, 3, decomp::Strategy::kRcb),
                   params, std::span(geo.inlets));
  ParallelSolver b(mesh,
                   decomp::make_partition(mesh, 5, decomp::Strategy::kSlab),
                   params, std::span(geo.inlets));
  std::thread ta([&] { a.run(30); });
  std::thread tb([&] { b.run(30); });
  ta.join();
  tb.join();

  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  serial.run(30);
  const auto expected = serial.export_state();
  EXPECT_EQ(a.export_state(), expected);
  EXPECT_EQ(b.export_state(), expected);
}

TEST(RuntimeStress, ConcurrentConstructionStaysBitIdentical) {
  // Three solvers constructed at once on one shared mesh: each
  // construction runs the OpenMP view row passes and its own helper
  // threads that fill the rank arrays, side by side with the others.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 20});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 8, decomp::Strategy::kRcb);
  for (const lbm::Layout layout : {lbm::Layout::kAoS, lbm::Layout::kSoA}) {
    SCOPED_TRACE(lbm::to_string(layout));
    auto params = base_params();
    params.kernel.layout = layout;
    lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
    serial.run(10);
    const auto expected = serial.export_state();

    constexpr std::size_t kSolvers = 3;
    std::vector<std::vector<double>> states(kSolvers);
    {
      std::vector<std::jthread> threads;
      for (std::size_t k = 0; k < kSolvers; ++k) {
        threads.emplace_back([&, k] {
          ParallelSolver parallel(mesh, part, params, std::span(geo.inlets));
          parallel.run(10);
          states[k] = parallel.export_state();
        });
      }
    }
    for (std::size_t k = 0; k < kSolvers; ++k) {
      EXPECT_EQ(states[k], expected) << "solver " << k;
    }
  }
}

}  // namespace
}  // namespace hemo::runtime
