// Tests for the threaded-rank parallel runtime: bit-identity against the
// serial solver across rank counts and geometries (including runs with
// dynamic rebalancing migrations), halo-topology invariants, the
// rebalance controller policy, and measured-vs-model validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <tuple>

#include "cluster/virtual_cluster.hpp"
#include "decomp/comm_graph.hpp"
#include "microbench/pingpong.hpp"
#include "runtime/parallel_solver.hpp"
#include "runtime/rebalance.hpp"
#include "runtime/validation.hpp"

namespace hemo::runtime {
namespace {

lbm::SolverParams base_params(lbm::Layout layout = lbm::Layout::kAoS) {
  lbm::SolverParams params;
  params.tau = 0.8;
  params.kernel.layout = layout;
  return params;
}

/// The layouts ranks sweep (AB + double on the segmented path).
constexpr lbm::Layout kLayouts[] = {lbm::Layout::kAoS, lbm::Layout::kSoA};

geometry::Geometry named_geometry(const std::string& name) {
  if (name == "cylinder") {
    return geometry::make_cylinder({.radius = 5, .length = 24});
  }
  return geometry::make_cerebral({.depth = 3});
}

/// The decisive acceptance test: the threaded runtime's canonical state
/// must equal the serial solver's bit for bit, for every rank count, on
/// both a compact and a branching geometry, in both layouts.
class ParallelEquivalence
    : public ::testing::TestWithParam<
          std::tuple<index_t, std::string, lbm::Layout>> {};

TEST_P(ParallelEquivalence, StateMatchesSerialSolverBitwise) {
  const auto [n_ranks, geo_name, layout] = GetParam();
  const auto geo = named_geometry(geo_name);
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto params = base_params(layout);

  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  const auto part = decomp::make_partition(mesh, n_ranks,
                                           decomp::Strategy::kRcb);
  ParallelSolver parallel(mesh, part, params, std::span(geo.inlets));

  serial.run(40);
  parallel.run(40);

  EXPECT_EQ(parallel.timestep(), 40);
  const auto expected = serial.export_state();
  const auto actual = parallel.export_state();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "value " << i;
  }
  for (const auto& timing : parallel.timings()) {
    EXPECT_EQ(timing.steps, 40);
    EXPECT_GT(timing.busy_s(), 0.0);
  }
}

// "bifurcation" names the branching cerebral tree; AoS cases keep their
// original names, SoA cases add a suffix.
INSTANTIATE_TEST_SUITE_P(
    RankSweep, ParallelEquivalence,
    ::testing::Combine(::testing::Values<index_t>(1, 2, 4, 8),
                       ::testing::Values(std::string("cylinder"),
                                         std::string("bifurcation")),
                       ::testing::ValuesIn(kLayouts)),
    [](const auto& info) {
      return std::get<1>(info.param) + "_ranks" +
             std::to_string(std::get<0>(info.param)) +
             (std::get<2>(info.param) == lbm::Layout::kSoA ? "_soa" : "");
    });

TEST(ParallelSolver, PulsatileInletMatchesSerialBitwise) {
  // The pulse scale depends on the shared timestep; lockstep epochs must
  // keep every rank on the same t.
  auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  for (auto& inlet : geo.inlets) {
    inlet.pulse_amplitude = 0.4;
    inlet.pulse_period = 15.0;
  }
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  for (const lbm::Layout layout : kLayouts) {
    SCOPED_TRACE(lbm::to_string(layout));
    const auto params = base_params(layout);
    lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
    ParallelSolver parallel(
        mesh, decomp::make_partition(mesh, 4, decomp::Strategy::kSlab),
        params, std::span(geo.inlets));
    serial.run(45);
    parallel.run(45);
    EXPECT_EQ(parallel.export_state(), serial.export_state());
  }
}

TEST(ParallelSolver, RequestedMigrationPreservesBitIdentity) {
  // A migration mid-run only moves ownership: gather, re-partition,
  // scatter. The state afterwards must equal an unmigrated serial run.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 4, decomp::Strategy::kSlab);
  for (const lbm::Layout layout : kLayouts) {
    SCOPED_TRACE(lbm::to_string(layout));
    const auto params = base_params(layout);
    lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
    ParallelSolver parallel(mesh, part, params, std::span(geo.inlets));

    parallel.run(20);
    const auto before = parallel.partition().points_of[0].size();
    parallel.request_migration(0, 1, 40);
    EXPECT_EQ(parallel.rebalance_count(), 1);
    EXPECT_EQ(parallel.partition().points_of[0].size(), before - 40);
    parallel.run(20);

    serial.run(40);
    EXPECT_EQ(parallel.export_state(), serial.export_state());
    EXPECT_EQ(parallel.timestep(), serial.timestep());
  }
}

TEST(ParallelSolver, DynamicRebalanceTriggersAndPreservesBitIdentity) {
  // A deliberately skewed two-rank split: rank 0 owns ~4x the points of
  // rank 1, so measured busy-time imbalance exceeds the threshold in every
  // window and an aggressive controller must migrate at least once.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const index_t n = mesh.num_points();
  const index_t split = n * 4 / 5;
  decomp::Partition part;
  part.n_tasks = 2;
  part.task_of.resize(static_cast<std::size_t>(n));
  part.points_of.resize(2);
  for (index_t p = 0; p < n; ++p) {
    const std::int32_t t = p < split ? 0 : 1;
    part.task_of[static_cast<std::size_t>(p)] = t;
    part.points_of[static_cast<std::size_t>(t)].push_back(p);
  }

  RuntimeOptions options;
  options.rebalance.enabled = true;
  options.rebalance.window = 4;
  options.rebalance.threshold = 1.05;
  options.rebalance.patience = 1;
  options.rebalance.min_block = 8;
  for (const lbm::Layout layout : kLayouts) {
    SCOPED_TRACE(lbm::to_string(layout));
    const auto params = base_params(layout);
    ParallelSolver parallel(mesh, part, params, std::span(geo.inlets),
                            options);

    // Run in chunks until a migration happened (generous cap; the 4:1
    // skew triggers within the first windows on any scheduler).
    index_t steps = 0;
    while (parallel.rebalance_count() == 0 && steps < 400) {
      parallel.run(20);
      steps += 20;
    }
    ASSERT_GE(parallel.rebalance_count(), 1)
        << "no migration after " << steps << " steps";
    if (layout == lbm::Layout::kAoS) {
      // The skew must have shrunk: rank 0 gave points away. This is the
      // controller's policy, checked once; the SoA sweeps are fast enough
      // that on a mesh this small the busy-time signal drowns in host
      // noise, so the SoA pass checks only the migrations' bit identity.
      EXPECT_LT(parallel.partition().points_of[0].size(),
                static_cast<std::size_t>(split));
    }

    lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
    serial.run(steps);
    EXPECT_EQ(parallel.export_state(), serial.export_state());
  }
}

TEST(ParallelSolver, RestoreStateRoundTripsThroughSerialCheckpoint) {
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto params = base_params();
  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  serial.run(25);
  const auto checkpoint = serial.export_state();

  ParallelSolver parallel(
      mesh, decomp::make_partition(mesh, 3, decomp::Strategy::kRcb), params,
      std::span(geo.inlets));
  parallel.restore_state(checkpoint, 25);
  EXPECT_EQ(parallel.timestep(), 25);
  EXPECT_EQ(parallel.export_state(), checkpoint);

  serial.run(10);
  parallel.run(10);
  EXPECT_EQ(parallel.export_state(), serial.export_state());
}

TEST(ParallelSolver, MomentsAndMassAgreeWithSerialSolver) {
  // Observables read through the rank views (owner rank, owner position,
  // layout) must agree with the serial solver's: moments exactly, mass up
  // to summation order.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 5, decomp::Strategy::kRcb);
  for (const lbm::Layout layout : kLayouts) {
    SCOPED_TRACE(lbm::to_string(layout));
    const auto params = base_params(layout);
    lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
    ParallelSolver parallel(mesh, part, params, std::span(geo.inlets));
    serial.run(30);
    parallel.run(30);
    for (index_t p = 0; p < mesh.num_points(); ++p) {
      const auto ms = serial.moments_at(p);
      const auto mp = parallel.moments_at(p);
      ASSERT_EQ(ms.rho, mp.rho) << "point " << p;
      ASSERT_EQ(ms.ux, mp.ux) << "point " << p;
      ASSERT_EQ(ms.uy, mp.uy) << "point " << p;
      ASSERT_EQ(ms.uz, mp.uz) << "point " << p;
    }
    EXPECT_NEAR(serial.total_mass(), parallel.total_mass(), 1e-9);
  }
}

TEST(ParallelSolver, RankTimingsCountEachStepOnce) {
  // Each rank's phases charge RankTimings through their accumulators:
  // every rank counts every step, and the four charged terms — disjoint
  // phases of one thread — never add up past the run's wall time.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  ParallelSolver parallel(
      mesh, decomp::make_partition(mesh, 4, decomp::Strategy::kRcb),
      base_params(), std::span(geo.inlets));
  constexpr index_t kSteps = 12;
  const auto start = std::chrono::steady_clock::now();
  parallel.run(kSteps);
  const real_t wall_s = std::chrono::duration<real_t>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  ASSERT_EQ(parallel.timings().size(), 4u);
  for (const RankTimings& t : parallel.timings()) {
    EXPECT_EQ(t.steps, kSteps);
    EXPECT_GT(t.mem_s, 0.0);
    EXPECT_LE(t.pack_s + t.mem_s + t.wait_s + t.unpack_s, wall_s);
  }
}

TEST(ParallelSolver, TopologyMatchesCommGraphStructure) {
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 6, decomp::Strategy::kRcb);
  ParallelSolver parallel(mesh, part, base_params(), std::span(geo.inlets));

  const auto graph = decomp::build_comm_graph(mesh, part);
  // One mailbox per directed message of the communication graph.
  EXPECT_EQ(parallel.channel_count(),
            static_cast<index_t>(graph.messages.size()));
  // Ghosts deduplicate links sharing an upstream point.
  index_t total_links = 0;
  for (const auto& m : graph.messages) total_links += m.link_count;
  EXPECT_GT(parallel.ghost_count(), 0);
  EXPECT_LE(parallel.ghost_count(), total_links);
  EXPECT_GT(parallel.bytes_per_exchange(), 0.0);
}

TEST(ParallelSolver, InteriorAndFrontierPartitionOwnedSlots) {
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 4, decomp::Strategy::kRcb);
  const auto topo = harvey::build_halo_exchange(mesh, part);
  ASSERT_EQ(topo.ranks.size(), 4u);
  for (std::size_t r = 0; r < topo.ranks.size(); ++r) {
    const lbm::SegmentedMesh& view = topo.ranks[r];
    const index_t n = view.num_points();
    // The sweep ranges [0, bulk), [bulk, frontier), [frontier, n) are
    // ordered and end before the ghost tail.
    ASSERT_LE(view.bulk_count(), view.frontier_begin());
    ASSERT_LT(view.frontier_begin(), n);  // a 4-way split has a frontier
    ASSERT_LT(n, view.num_slots());       // ... and ghosts

    // Interior and frontier together hold each of the rank's points
    // exactly once; the ghost tail holds only other ranks' points.
    std::vector<int> hits(static_cast<std::size_t>(mesh.num_points()), 0);
    for (index_t i = 0; i < view.num_slots(); ++i) {
      const index_t p = view.point_at(i);
      const bool owned = part.task_of[static_cast<std::size_t>(p)] ==
                         static_cast<std::int32_t>(r);
      EXPECT_EQ(owned, i < n) << "slot " << i;
      if (i < n) {
        ++hits[static_cast<std::size_t>(p)];
        EXPECT_EQ(topo.owner_slot[static_cast<std::size_t>(p)], i);
      }
    }
    for (const index_t p : part.points_of[r]) {
      EXPECT_EQ(hits[static_cast<std::size_t>(p)], 1) << "point " << p;
    }

    // Interior positions never gather from a ghost slot; every frontier
    // position does.
    for (index_t i = 0; i < n; ++i) {
      bool reads_ghost = false;
      for (index_t q = 0; q < lbm::kQ; ++q) {
        const std::int32_t nb = view.neighbor(i, q);
        ASSERT_LT(static_cast<index_t>(nb), view.num_slots());
        reads_ghost = reads_ghost || static_cast<index_t>(nb) >= n;
      }
      EXPECT_EQ(reads_ghost, i >= view.frontier_begin()) << "position " << i;
    }

    // The bulk spans tile [0, bulk), and their direct-indexed reads stay
    // inside the owned range.
    index_t covered = 0;
    for (const lbm::SegmentSpan& span : view.spans()) {
      EXPECT_EQ(span.begin, covered);
      for (index_t i = span.begin; i < span.begin + span.length; ++i) {
        for (const std::int32_t off : span.offsets) {
          EXPECT_GE(i + off, 0);
          EXPECT_LT(i + off, n);
        }
      }
      covered += span.length;
    }
    EXPECT_EQ(covered, view.bulk_count());
  }
}

TEST(ParallelSolver, RejectsUnsupportedConfigurations) {
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 12});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 2, decomp::Strategy::kRcb);
  auto aa = base_params();
  aa.kernel.propagation = lbm::Propagation::kAA;
  EXPECT_THROW(ParallelSolver(mesh, part, aa, std::span(geo.inlets)),
               PreconditionError);
  auto single = base_params();
  single.kernel.precision = lbm::Precision::kSingle;
  EXPECT_THROW(ParallelSolver(mesh, part, single, std::span(geo.inlets)),
               PreconditionError);
  auto reference = base_params();
  reference.kernel.path = lbm::KernelPath::kReference;
  EXPECT_THROW(ParallelSolver(mesh, part, reference, std::span(geo.inlets)),
               PreconditionError);
}

TEST(RebalanceController, QuietWindowsNeverTrigger) {
  RebalanceOptions options;
  options.enabled = true;
  options.threshold = 1.25;
  options.patience = 1;
  RebalanceController controller(options);
  decomp::Partition part;
  part.n_tasks = 2;
  part.points_of = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  part.task_of = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<std::vector<std::int32_t>> neighbors = {{1}, {0}};
  const std::vector<real_t> balanced = {1.0, 1.01};
  for (int w = 0; w < 5; ++w) {
    EXPECT_FALSE(
        controller.observe_window(balanced, part, neighbors).has_value());
  }
  EXPECT_EQ(controller.hot_windows(), 0);
}

TEST(RebalanceController, SustainedImbalancePlansMigrationAfterPatience) {
  RebalanceOptions options;
  options.enabled = true;
  options.threshold = 1.25;
  options.patience = 2;
  options.min_block = 1;
  options.move_fraction = 0.5;
  RebalanceController controller(options);
  decomp::Partition part;
  part.n_tasks = 3;
  part.points_of = {{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9}, {10, 11}};
  part.task_of = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2};
  const std::vector<std::vector<std::int32_t>> neighbors = {
      {1, 2}, {0, 2}, {0, 1}};
  const std::vector<real_t> skewed = {4.0, 1.0, 0.5};

  // First hot window: patience not yet reached.
  EXPECT_FALSE(controller.observe_window(skewed, part, neighbors).has_value());
  EXPECT_EQ(controller.hot_windows(), 1);
  // Second: plan issued, hot rank 0 donates to its coolest neighbor 2.
  const auto plan = controller.observe_window(skewed, part, neighbors);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->from, 0);
  EXPECT_EQ(plan->to, 2);
  EXPECT_GE(plan->count, 1);
  EXPECT_LT(plan->count, 8);
  EXPECT_EQ(controller.hot_windows(), 0);  // streak resets after a plan
}

TEST(RebalanceController, DisabledControllerIsInert) {
  RebalanceController controller(RebalanceOptions{});  // enabled = false
  decomp::Partition part;
  part.n_tasks = 2;
  part.points_of = {{0, 1, 2}, {3}};
  part.task_of = {0, 0, 0, 1};
  const std::vector<std::vector<std::int32_t>> neighbors = {{1}, {0}};
  const std::vector<real_t> skewed = {10.0, 0.1};
  for (int w = 0; w < 4; ++w) {
    EXPECT_FALSE(
        controller.observe_window(skewed, part, neighbors).has_value());
  }
}

/// A hand-set host: 10,000 MB/s COPY and a PingPong table of 1 us plus
/// 1 us per KB, in the calibration's MB/s + microsecond units.
LocalHostModel synthetic_host() {
  LocalHostModel host;
  host.memory = fit::TwoLineModel{.a1 = 10000.0, .a2 = 10000.0, .a3 = 1.0};
  host.intra = fit::CommModel{.bandwidth = 1000.0, .latency = 1.0};
  host.inter = host.intra;
  host.intra_raw = fit::Interp1D({0.0, 1e6}, {1.0, 1001.0});
  host.inter_raw = host.intra_raw;
  return host;
}

/// One completed step per rank, 1 ms in each phase.
std::vector<RankTimings> one_step_each(index_t ranks) {
  return std::vector<RankTimings>(
      static_cast<std::size_t>(ranks),
      RankTimings{.steps = 1, .pack_s = 1e-3, .mem_s = 1e-3});
}

TEST(Validation, PredictionsScaleWithPartitionBytes) {
  // The local memory rule: every rank gets the whole 1-thread COPY
  // bandwidth, so t_mem = task bytes / (COPY MB/s * 1e6).
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 4, decomp::Strategy::kRcb);
  obs::MetricsRegistry registry;
  const auto report = validate_run(mesh, part, {}, synthetic_host(),
                                   one_step_each(4), "cyl", registry);
  ASSERT_EQ(report.ranks.size(), 4u);
  const auto bytes = decomp::task_bytes_per_step(mesh, part, {});
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const core::TaskTerms& p = report.ranks[r].predicted;
    EXPECT_DOUBLE_EQ(p.t_mem.value(), bytes[r] / (10000.0 * 1e6));
    EXPECT_GT(p.t_comm().value(), 0.0);  // every rank communicates
  }
}

TEST(Validation, RankTermsAreTheDirectModelOnOneNode) {
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 4, decomp::Strategy::kRcb);
  const LocalHostModel host = synthetic_host();
  const auto plan = cluster::make_workload_plan(mesh, part, {}, 4);
  ASSERT_EQ(plan.n_nodes, 1);
  const auto terms = core::direct_task_terms(plan, host);

  obs::MetricsRegistry registry;
  const auto report =
      validate_run(mesh, part, {}, host, one_step_each(4), "cyl", registry);
  ASSERT_EQ(report.ranks.size(), terms.size());
  for (std::size_t r = 0; r < terms.size(); ++r) {
    const core::TaskTerms& p = report.ranks[r].predicted;
    EXPECT_EQ(p.t_mem.value(), terms[r].t_mem.value());
    EXPECT_EQ(p.t_intra.value(), terms[r].t_intra.value());
    EXPECT_EQ(p.t_inter.value(), 0.0);
    EXPECT_EQ(p.t_xfer.value(), 0.0);
  }
  const core::ModelPrediction model = core::predict_direct(plan, host);
  EXPECT_EQ(report.predicted_step_s, model.step_seconds.value());
  EXPECT_EQ(report.predicted_mflups, model.mflups.value());
}

TEST(Validation, MessageIsChargedToBothEndpoints) {
  // With two ranks every message has both as endpoints, so each rank's
  // t_comm is the interpolated time of every message.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 2, decomp::Strategy::kRcb);
  const LocalHostModel host = synthetic_host();
  real_t all_messages_s = 0.0;
  for (const decomp::Message& m :
       decomp::build_comm_graph(mesh, part).messages) {
    all_messages_s += (*host.intra_raw)(m.bytes({})) * 1e-6;
  }
  ASSERT_GT(all_messages_s, 0.0);

  obs::MetricsRegistry registry;
  const auto report =
      validate_run(mesh, part, {}, host, one_step_each(2), "cyl", registry);
  for (const RankValidation& v : report.ranks) {
    EXPECT_DOUBLE_EQ(v.predicted.t_comm().value(), all_messages_s);
  }
}

TEST(Validation, ValidateRunReportsErrorsAndRecordsDrift) {
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 2, decomp::Strategy::kRcb);
  const LocalHostModel host = synthetic_host();
  const auto terms = core::direct_task_terms(
      cluster::make_workload_plan(mesh, part, {}, 2), host);

  // Synthetic measurement: exactly 2x the predicted times, so every
  // signed relative error is (pred - meas) / meas = -0.5.
  std::vector<RankTimings> timings(2);
  for (std::size_t r = 0; r < 2; ++r) {
    timings[r].steps = 10;
    timings[r].mem_s = 2.0 * terms[r].t_mem.value() * 10.0;
    timings[r].pack_s = 2.0 * terms[r].t_comm().value() * 10.0;
  }

  obs::MetricsRegistry registry;
  registry.enable(true);
  const auto report = validate_run(mesh, part, {}, host, timings, "cyl",
                                   registry);
  ASSERT_EQ(report.ranks.size(), 2u);
  for (const auto& rank : report.ranks) {
    EXPECT_NEAR(rank.mem_rel_error, -0.5, 1e-12);
    EXPECT_NEAR(rank.comm_rel_error, -0.5, 1e-12);
    EXPECT_NEAR(rank.step_rel_error, -0.5, 1e-12);
  }
  EXPECT_GT(report.measured_step_s, report.predicted_step_s);
  EXPECT_GT(report.predicted_mflups, report.measured_mflups);

  bool saw_mem = false, saw_comm = false, saw_drift = false;
  for (const auto& series : registry.snapshot()) {
    saw_mem = saw_mem || series.name == "runtime_model_mem_rel_error";
    saw_comm = saw_comm || series.name == "runtime_model_comm_rel_error";
    saw_drift = saw_drift || series.name == "model_drift_samples_total";
  }
  EXPECT_TRUE(saw_mem);
  EXPECT_TRUE(saw_comm);
  EXPECT_TRUE(saw_drift);
}

TEST(Validation, LocalHostModelMeasuresThisMachine) {
  const LocalHostModel host = LocalHostModel::measure();
  EXPECT_GT(host.memory.a1, 0.0);
  EXPECT_EQ(host.memory.a2, host.memory.a1);
  EXPECT_EQ(host.memory.a3, 1.0);
  EXPECT_GT(host.intra.bandwidth, 0.0);
  EXPECT_GE(host.intra.latency, 0.0);
  ASSERT_TRUE(host.intra_raw.has_value());
  EXPECT_EQ(host.intra_raw->size(),
            static_cast<index_t>(microbench::default_message_sizes().size()));
  ASSERT_TRUE(host.inter_raw.has_value());
  EXPECT_EQ(host.inter.bandwidth, host.intra.bandwidth);
}

TEST(ParallelSolver, WindowMetricsFlushThroughRegistry) {
  // The epoch callback flushes per-window busy times and the measured
  // imbalance gauge into the global registry when it is enabled.
  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  registry.enable(true);
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  RuntimeOptions options;
  options.rebalance.window = 8;
  options.workload = "metrics-test";
  ParallelSolver parallel(
      mesh, decomp::make_partition(mesh, 2, decomp::Strategy::kRcb),
      base_params(), std::span(geo.inlets), options);
  parallel.run(16);  // two full windows
  bool saw_busy = false, saw_imbalance = false, saw_windows = false;
  for (const auto& series : registry.snapshot()) {
    saw_busy = saw_busy || series.name == "runtime_window_busy_seconds";
    saw_imbalance =
        saw_imbalance || series.name == "runtime_measured_imbalance";
    if (series.name == "runtime_windows_total") {
      saw_windows = true;
      EXPECT_DOUBLE_EQ(series.value, 2.0);
    }
  }
  registry.enable(false);
  registry.reset();
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(saw_imbalance);
  EXPECT_TRUE(saw_windows);
}

}  // namespace
}  // namespace hemo::runtime
