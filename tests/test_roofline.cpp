// Tests for the roofline analysis and the refined distributed exchange:
// the paper's premise (LBM is memory-bound on every tested system) becomes
// a checked property, and the message-channel halo exchange must be
// consistent with the communication graph.
#include <gtest/gtest.h>

#include "core/roofline.hpp"
#include "decomp/comm_graph.hpp"
#include "geometry/generators.hpp"
#include "lbm/mesh.hpp"
#include "runtime/parallel_solver.hpp"

namespace hemo {
namespace {

TEST(Roofline, PeakAndRidgeScaleWithThreads) {
  const auto& trc = cluster::instance_by_abbrev("TRC");
  const auto r1 = core::instance_roofline(trc, 1);
  const auto r40 = core::instance_roofline(trc, 40);
  EXPECT_NEAR(r40.peak.value(), r1.peak.value() * 40.0, 1e-9);
  EXPECT_GT(r40.bandwidth.value(), r1.bandwidth.value());
  // Bandwidth saturates, so the ridge point moves right with threads.
  EXPECT_GT(r40.ridge.value(), r1.ridge.value());
}

TEST(Roofline, LbmIsMemoryBoundOnEveryCatalogInstance) {
  // The paper: "LBM algorithms are memory-bound on nearly all
  // general-purpose hardware" — the assumption Eq. 4 rests on. Verify it
  // for our kernel's measured arithmetic intensity on every system.
  const auto geo = geometry::make_cylinder({.radius = 6, .length = 32});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const units::FlopsPerByte intensity =
      core::arithmetic_intensity(mesh, lbm::KernelConfig{});
  EXPECT_GT(intensity.value(), 0.5);
  EXPECT_LT(intensity.value(), 3.0);  // ~1.3 flops/byte for D3Q19 BGK
  for (const auto& profile : cluster::default_catalog()) {
    const auto roofline =
        core::instance_roofline(profile, profile.cores_per_node);
    EXPECT_EQ(core::bound_for(roofline, intensity), core::Bound::kMemory)
        << profile.abbrev;
    EXPECT_GT(roofline.ridge.value(), intensity.value()) << profile.abbrev;
  }
}

TEST(Roofline, AdjustmentIsNoOpForMemoryBoundKernels) {
  // A self-consistent memory-bound task on TRC: 1e5 points move ~37.6 MB
  // per step against a ~1.4 GB/s per-task share (t_mem ~ 27 ms) while
  // needing only ~45 Mflops (t_compute ~ 2.6 ms at a 1/40 peak share).
  core::ModelPrediction pred;
  pred.t_mem = units::Seconds(2.7e-2);
  pred.t_comm = units::Seconds(1e-4);
  pred.step_seconds = units::Seconds(2.71e-2);
  pred.mflups = units::Mflups(100.0);
  const auto& trc = cluster::instance_by_abbrev("TRC");
  const auto roofline = core::instance_roofline(trc, 40);
  const auto adjusted = core::roofline_adjusted(
      pred, roofline, units::Flops(4.5e7), 1.0 / 40.0);
  EXPECT_DOUBLE_EQ(adjusted.t_mem.value(), pred.t_mem.value());
  EXPECT_DOUBLE_EQ(adjusted.mflups.value(), pred.mflups.value());
}

TEST(Roofline, AdjustmentBindsForComputeHeavyWork) {
  core::ModelPrediction pred;
  pred.t_mem = units::Seconds(1e-6);  // tiny memory term
  pred.t_comm = units::Seconds(0.0);
  pred.step_seconds = units::Seconds(1e-6);
  pred.mflups = units::Mflups(100.0);
  const auto& trc = cluster::instance_by_abbrev("TRC");
  const auto roofline = core::instance_roofline(trc, 40);
  // A hypothetical compute-dominated task: 1e12 flops.
  const auto adjusted =
      core::roofline_adjusted(pred, roofline, units::Flops(1e12), 1.0);
  EXPECT_GT(adjusted.t_mem.value(), pred.t_mem.value() * 100.0);
  EXPECT_LT(adjusted.mflups.value(), pred.mflups.value());
}

TEST(PointFlops, BoundaryPointsSkipRelaxation) {
  EXPECT_GT(lbm::point_flops(lbm::PointType::kBulk),
            lbm::point_flops(lbm::PointType::kInlet));
  EXPECT_DOUBLE_EQ(lbm::point_flops(lbm::PointType::kWall),
                   lbm::point_flops(lbm::PointType::kBulk));
}

TEST(HaloChannels, MatchCommGraphEndpoints) {
  // The rank solver's message channels must connect exactly the task
  // pairs the communication graph predicts.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 30});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 6, decomp::Strategy::kRcb);
  lbm::SolverParams params;
  runtime::ParallelSolver dist(mesh, part, params, std::span(geo.inlets));
  const auto graph = decomp::build_comm_graph(mesh, part);
  EXPECT_EQ(dist.channel_count(),
            static_cast<index_t>(graph.messages.size()));
  // Whole-row ghosts move at least as many bytes as link-level counting.
  lbm::KernelConfig config{};
  real_t link_bytes = 0.0;
  for (const auto& m : graph.messages) link_bytes += m.bytes(config);
  EXPECT_GE(dist.bytes_per_exchange(), link_bytes);
  EXPECT_GT(dist.bytes_per_exchange(), 0.0);
}

}  // namespace
}  // namespace hemo
