// Property-based tests: parameterized sweeps asserting invariants across
// the library's parameter spaces — solver stability over relaxation times,
// equilibrium positivity over velocity ranges, fit recovery over random
// parameter draws, decomposition invariants over geometries and task
// counts, and calibration fidelity over the whole instance catalog.
#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "decomp/comm_graph.hpp"
#include "fit/linear.hpp"
#include "fit/two_line.hpp"
#include "geometry/generators.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/mesh.hpp"
#include "lbm/solver.hpp"
#include "util/rng.hpp"

namespace hemo {
namespace {

// ---------------------------------------------------------------- solver

class TauSweep : public ::testing::TestWithParam<double> {};

TEST_P(TauSweep, StableAndMassConservingInClosedBox) {
  const real_t tau = GetParam();
  geometry::VoxelGrid grid(7, 7, 7);
  for (index_t z = 0; z < 7; ++z) {
    for (index_t y = 0; y < 7; ++y) {
      for (index_t x = 0; x < 7; ++x) {
        grid.set(x, y, z, geometry::PointType::kBulk);
      }
    }
  }
  grid.classify_walls();
  const geometry::Geometry geo{"box", std::move(grid), {}};
  const lbm::FluidMesh mesh = lbm::FluidMesh::build(geo.grid);
  lbm::SolverParams params;
  params.tau = tau;
  params.body_force = {1e-6, 0.0, 0.0};  // gentle forcing to excite flow
  lbm::Solver<double> solver(mesh, params, {});
  const real_t mass0 = solver.total_mass();
  solver.run(100);
  EXPECT_NEAR(solver.total_mass(), mass0, mass0 * 1e-11) << "tau " << tau;
  for (index_t p = 0; p < mesh.num_points(); p += 13) {
    const auto m = solver.moments_at(p);
    EXPECT_TRUE(std::isfinite(m.rho)) << "tau " << tau;
    EXPECT_GT(m.rho, 0.0);
    EXPECT_LT(std::abs(m.ux) + std::abs(m.uy) + std::abs(m.uz), 0.3);
  }
}

INSTANTIATE_TEST_SUITE_P(RelaxationTimes, TauSweep,
                         ::testing::Values(0.55, 0.7, 0.9, 1.2, 1.8),
                         [](const auto& info) {
                           return "tau_" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

class VelocitySweep : public ::testing::TestWithParam<double> {};

TEST_P(VelocitySweep, EquilibriumIsPositiveAndMomentExact) {
  const real_t u = GetParam();
  const real_t rho = 1.0;
  real_t sum = 0.0, momentum = 0.0;
  for (index_t q = 0; q < lbm::kQ; ++q) {
    const real_t feq = lbm::equilibrium<double>(q, rho, u, 0.0, 0.0);
    EXPECT_GT(feq, 0.0) << "direction " << q << " at u = " << u;
    sum += feq;
    momentum +=
        feq * static_cast<real_t>(
                  lbm::kD3Q19[static_cast<std::size_t>(q)].dx);
  }
  EXPECT_NEAR(sum, rho, 1e-12);
  EXPECT_NEAR(momentum, rho * u, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(LatticeVelocities, VelocitySweep,
                         ::testing::Values(-0.15, -0.05, 0.0, 0.05, 0.15),
                         [](const auto& info) {
                           return "u_" +
                                  std::to_string(static_cast<int>(
                                      (info.param + 1.0) * 100));
                         });

// ----------------------------------------------------------------- fits

TEST(FitProperties, TwoLineRecoveryOverRandomParameters) {
  Xoshiro256 rng(0xfeedULL);
  for (int trial = 0; trial < 12; ++trial) {
    fit::TwoLineModel truth;
    truth.a1 = rng.uniform(3000.0, 20000.0);
    truth.a2 = rng.uniform(-200.0, 1500.0);
    truth.a3 = rng.uniform(3.0, 20.0);
    std::vector<real_t> xs, ys;
    for (index_t n = 1; n <= 40; ++n) {
      xs.push_back(static_cast<real_t>(n));
      ys.push_back(truth(static_cast<real_t>(n)) *
                   (1.0 + 0.005 * rng.gaussian()));
    }
    const auto m = fit::fit_two_line(xs, ys);
    EXPECT_NEAR(m.a1, truth.a1, truth.a1 * 0.08) << "trial " << trial;
    EXPECT_NEAR(m.a3, truth.a3, 1.5) << "trial " << trial;
    // Predictions near the knee and at full node stay close.
    for (real_t x : {truth.a3, 40.0}) {
      EXPECT_NEAR(m(x), truth(x), std::abs(truth(x)) * 0.05)
          << "trial " << trial;
    }
  }
}

TEST(FitProperties, CommModelRecoveryOverRandomParameters) {
  Xoshiro256 rng(0xbeefULL);
  for (int trial = 0; trial < 12; ++trial) {
    const real_t b = rng.uniform(500.0, 8000.0);   // MB/s == B/us
    const real_t l = rng.uniform(0.5, 40.0);       // us
    std::vector<real_t> sizes, times;
    for (real_t m = 0.0; m <= 4e6; m = m == 0.0 ? 64.0 : m * 4.0) {
      sizes.push_back(m);
      times.push_back((m / b + l) * (1.0 + 0.01 * rng.gaussian()));
    }
    const auto fit_model = fit::fit_comm_model(sizes, times);
    EXPECT_NEAR(fit_model.bandwidth, b, b * 0.05) << "trial " << trial;
    EXPECT_NEAR(fit_model.latency, l, l * 0.05) << "trial " << trial;
  }
}

// ----------------------------------------------------- kernels/accounting

class KernelConfigSweep
    : public ::testing::TestWithParam<
          std::tuple<lbm::Layout, lbm::Propagation, lbm::Precision>> {};

TEST_P(KernelConfigSweep, TrafficDecreasesWithSolidLinks) {
  lbm::KernelConfig config;
  config.layout = std::get<0>(GetParam());
  config.propagation = std::get<1>(GetParam());
  config.precision = std::get<2>(GetParam());
  real_t prev = lbm::point_traffic(config, lbm::PointType::kWall, 0).total();
  for (index_t s = 1; s <= 12; ++s) {
    const real_t t =
        lbm::point_traffic(config, lbm::PointType::kWall, s).total();
    EXPECT_LT(t, prev) << "solid links " << s;
    prev = t;
  }
}

TEST_P(KernelConfigSweep, TraitsAreSane) {
  lbm::KernelConfig config;
  config.layout = std::get<0>(GetParam());
  config.propagation = std::get<1>(GetParam());
  config.precision = std::get<2>(GetParam());
  for (lbm::Unroll u : {lbm::Unroll::kYes, lbm::Unroll::kNo}) {
    config.unroll = u;
    const auto traits = lbm::kernel_traits(config);
    EXPECT_GT(traits.overhead_cycles_per_point, 0.0);
    EXPECT_GT(traits.bandwidth_efficiency, 0.0);
    EXPECT_LE(traits.bandwidth_efficiency, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, KernelConfigSweep,
    ::testing::Combine(
        ::testing::Values(lbm::Layout::kAoS, lbm::Layout::kSoA),
        ::testing::Values(lbm::Propagation::kAB, lbm::Propagation::kAA),
        ::testing::Values(lbm::Precision::kSingle,
                          lbm::Precision::kDouble)),
    [](const auto& info) {
      return lbm::to_string(std::get<1>(info.param)) + "_" +
             lbm::to_string(std::get<0>(info.param)) + "_" +
             lbm::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------------ decomp

// The geometry name is a std::string, not a const char*: gtest prints a
// const char* parameter with its address, which would put the random load
// address into the discovered test names.
class GeometryTaskSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(GeometryTaskSweep, DecompositionInvariantsHold) {
  const std::string geo_name = std::get<0>(GetParam());
  const index_t n_tasks = std::get<1>(GetParam());
  geometry::Geometry geo =
      geo_name == "cylinder"
          ? geometry::make_cylinder({.radius = 7, .length = 40})
      : geo_name == "aorta"
          ? geometry::make_aorta({.vessel_radius = 6.0, .height = 80})
          : geometry::make_cerebral({.depth = 4});
  const lbm::FluidMesh mesh = lbm::FluidMesh::build(geo.grid);
  const auto part =
      decomp::make_partition(mesh, n_tasks, decomp::Strategy::kRcb);
  const auto graph = decomp::build_comm_graph(mesh, part);

  // Invariant 1: total send links == total recv links.
  index_t sends = 0, recvs = 0;
  for (const auto& task : graph.per_task) {
    sends += task.send_links;
    recvs += task.recv_links;
  }
  EXPECT_EQ(sends, recvs);

  // Invariant 2: task bytes sum to the serial count.
  const lbm::KernelConfig config{};
  const auto bytes = decomp::task_bytes_per_step(mesh, part, config);
  real_t sum = 0.0;
  for (real_t b : bytes) sum += b;
  EXPECT_NEAR(sum, lbm::serial_bytes_per_step(mesh, config),
              1e-9 * sum + 1e-6);

  // Invariant 3: imbalance >= 1 and bounded by the task count.
  const real_t z = decomp::measured_imbalance(mesh, part, config);
  EXPECT_GE(z, 1.0 - 1e-12);
  EXPECT_LE(z, static_cast<real_t>(n_tasks));

  // Invariant 4: message link counts are positive and each message's
  // endpoints differ.
  for (const auto& m : graph.messages) {
    EXPECT_GT(m.link_count, 0);
    EXPECT_NE(m.from, m.to);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesAndCounts, GeometryTaskSweep,
    ::testing::Combine(::testing::Values(std::string("cylinder"),
                                         std::string("aorta"),
                                         std::string("cerebral")),
                       ::testing::Values(3, 8, 27, 64)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------------ cluster

class CatalogSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(CatalogSweep, CalibrationRecoversGroundTruthMemoryLaw) {
  const auto& profile = cluster::instance_by_abbrev(GetParam());
  const auto cal = core::calibrate_instance(profile);
  // Fitted node bandwidth at full physical cores within 12 % of truth.
  const real_t n = static_cast<real_t>(profile.cores_per_node);
  const real_t truth = profile.memory.node_bandwidth_mbs(n).value();
  EXPECT_NEAR(cal.memory.bandwidth(n), truth, truth * 0.12) << GetParam();
  // Comm fits positive and ordered (intra faster than inter).
  EXPECT_GT(cal.inter.bandwidth, 0.0);
  EXPECT_GT(cal.intra.bandwidth, cal.inter.bandwidth);
  EXPECT_LT(cal.intra.latency, cal.inter.latency);
}

TEST_P(CatalogSweep, ExecutionIsDeterministicPerContext) {
  const auto& profile = cluster::instance_by_abbrev(GetParam());
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part =
      decomp::make_partition(mesh, 8, decomp::Strategy::kRcb);
  const auto plan = cluster::make_workload_plan(
      mesh, part, lbm::KernelConfig{}, profile.cores_per_node);
  cluster::VirtualCluster vc(profile);
  const auto a = vc.execute(plan, 100, {2, 6, 1});
  const auto b = vc.execute(plan, 100, {2, 6, 1});
  EXPECT_DOUBLE_EQ(a.mflups.value(), b.mflups.value());
  EXPECT_EQ(a.critical_task, b.critical_task);
}

INSTANTIATE_TEST_SUITE_P(AllInstances, CatalogSweep,
                         ::testing::Values("TRC", "CSP-1", "CSP-2 Small",
                                           "CSP-2", "CSP-2 EC"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == ' ' || c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hemo
