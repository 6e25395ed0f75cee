// Integration tests for the HARVEY-equivalent: the simulation driver and,
// critically, the halo-exchanging rank solver against the serial one.
#include <gtest/gtest.h>

#include <cmath>

#include "harvey/simulation.hpp"
#include "runtime/parallel_solver.hpp"

namespace hemo::harvey {
namespace {

TEST(Simulation, CachesPartitionsAndPlans) {
  Simulation sim(geometry::make_cylinder({.radius = 5, .length = 30}), {});
  const auto& p1 = sim.partition(8);
  const auto& p2 = sim.partition(8);
  EXPECT_EQ(&p1, &p2);  // same cached object
  const auto& plan1 = sim.plan(8, 4);
  const auto& plan2 = sim.plan(8, 4);
  EXPECT_EQ(&plan1, &plan2);
  EXPECT_EQ(plan1.n_nodes, 2);
}

TEST(Simulation, MeasureShowsWithinNodeScalingThenCommCollapse) {
  // Within one node, adding ranks adds bandwidth share and throughput
  // rises; spilling a small domain across nodes makes latency-dominated
  // halo exchange take over — the strong-scaling rollover of Figs. 3/7.
  Simulation sim(geometry::make_cylinder({.radius = 6, .length = 40}), {});
  const auto& csp2 = cluster::instance_by_abbrev("CSP-2");
  const auto r4 = sim.measure(csp2, 4, 500);
  const auto r16 = sim.measure(csp2, 16, 500);
  const auto r64 = sim.measure(csp2, 64, 500);
  EXPECT_GT(r16.mflups.value(), r4.mflups.value());
  EXPECT_GT(r64.mflups.value(), 0.0);
  // At 64 ranks (2 nodes) on this small domain, internodal communication
  // dominates the critical task's step time.
  EXPECT_GT(r64.critical.inter_s.value(), r64.critical.mem_s.value());
}

class DistributedEquivalence
    : public ::testing::TestWithParam<decomp::Strategy> {};

TEST_P(DistributedEquivalence, MatchesSerialSolverBitwise) {
  // The decisive correctness test for the halo-exchange semantics the
  // performance models count: ranks stepping their own slot spaces with
  // ghost exchange must reproduce the serial solver exactly.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  lbm::SolverParams params;
  params.tau = 0.8;

  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  const auto part = decomp::make_partition(mesh, 7, GetParam());
  runtime::ParallelSolver ranks(mesh, part, params, std::span(geo.inlets));

  serial.run(60);
  ranks.run(60);

  EXPECT_EQ(ranks.export_state(), serial.export_state());
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    const auto ms = serial.moments_at(p);
    const auto md = ranks.moments_at(p);
    ASSERT_DOUBLE_EQ(ms.rho, md.rho) << "point " << p;
    ASSERT_DOUBLE_EQ(ms.uz, md.uz) << "point " << p;
  }
  EXPECT_NEAR(serial.total_mass(), ranks.total_mass(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Strategies, DistributedEquivalence,
                         ::testing::Values(decomp::Strategy::kGrid,
                                           decomp::Strategy::kRcb,
                                           decomp::Strategy::kSlab),
                         [](const auto& info) {
                           return std::string(decomp::to_string(info.param));
                         });

TEST(Simulation, GeometryEffectsMatchPaperOrdering) {
  // Fig. 3: with the same core budget, the wall-point-rich cerebral
  // geometry achieves the highest MFLUPS.
  const auto& csp2 = cluster::instance_by_abbrev("CSP-2");
  Simulation cyl(geometry::make_cylinder({.radius = 10, .length = 80}), {});
  Simulation cer(geometry::make_cerebral({.depth = 5}), {});
  const real_t m_cyl = cyl.measure(csp2, 36, 200).mflups.value();
  const real_t m_cer = cer.measure(csp2, 36, 200).mflups.value();
  EXPECT_GT(m_cer, m_cyl);
}

}  // namespace
}  // namespace hemo::harvey
