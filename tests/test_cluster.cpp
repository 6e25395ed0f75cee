// Unit tests for the virtual cluster substrate: instance catalog, memory
// system, interconnect, noise model, and workload execution.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <string>

#include "cluster/hardware.hpp"
#include "cluster/instance.hpp"
#include "cluster/virtual_cluster.hpp"
#include "decomp/partition.hpp"
#include "geometry/generators.hpp"
#include "lbm/mesh.hpp"

namespace hemo::cluster {
namespace {

TEST(Catalog, ContainsThePapersSystems) {
  const auto& cat = default_catalog();
  EXPECT_EQ(cat.size(), 7u);  // Table I systems + CSP-2 Hyp. + CSP-2 GPU
  for (const char* abbrev :
       {"TRC", "CSP-1", "CSP-2 Small", "CSP-2", "CSP-2 EC", "CSP-2 Hyp."}) {
    EXPECT_NO_THROW((void)instance_by_abbrev(abbrev)) << abbrev;
  }
  EXPECT_THROW((void)instance_by_abbrev("CSP-9"), PreconditionError);
}

TEST(Catalog, TableOneValuesSeeded) {
  const auto& trc = instance_by_abbrev("TRC");
  EXPECT_EQ(trc.cores_per_node, 40);
  EXPECT_EQ(trc.total_cores, 2000);
  EXPECT_DOUBLE_EQ(trc.interconnect.value(), 56.0);
  const auto& ec = instance_by_abbrev("CSP-2 EC");
  EXPECT_EQ(ec.cores_per_node, 36);
  EXPECT_DOUBLE_EQ(ec.interconnect.value(), 100.0);
  // Table III values drive the ground truth.
  EXPECT_NEAR(ec.memory.a1, 7605.85, 1e-6);
  EXPECT_NEAR(ec.inter.latency.value(), 20.94, 1e-6);
}

TEST(MemoryParams, TwoLineLawContinuousAndSaturating) {
  const auto& p = instance_by_abbrev("CSP-2");
  const real_t at_knee = p.memory.node_bandwidth_mbs(p.memory.a3).value();
  EXPECT_NEAR(at_knee, p.memory.a1 * p.memory.a3, 1e-6);
  // Slope flattens after the knee.
  const real_t before = p.memory.node_bandwidth_mbs(5.0).value() -
                        p.memory.node_bandwidth_mbs(4.0).value();
  const real_t after = p.memory.node_bandwidth_mbs(20.0).value() -
                       p.memory.node_bandwidth_mbs(19.0).value();
  EXPECT_GT(before, after);
}

TEST(MemorySystem, MeasurementsAreDeterministicPerSample) {
  const auto& p = instance_by_abbrev("CSP-2");
  MemorySystem mem(p);
  EXPECT_DOUBLE_EQ(mem.measured_node_bandwidth(8, 0).value(),
                   mem.measured_node_bandwidth(8, 0).value());
  EXPECT_NE(mem.measured_node_bandwidth(8, 0).value(),
            mem.measured_node_bandwidth(8, 1).value());
}

TEST(MemorySystem, SharedChannelVarianceKicksInPastKnee) {
  const auto& p = instance_by_abbrev("CSP-2");  // shared_memory_channels
  MemorySystem mem(p);
  auto spread = [&](index_t threads) {
    real_t lo = 1e30, hi = 0.0;
    for (index_t s = 0; s < 24; ++s) {
      const real_t b = mem.measured_node_bandwidth(threads, s).value();
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    return (hi - lo) / hi;
  };
  EXPECT_GT(spread(30), spread(4) * 2.0);
}

TEST(MemorySystem, TaskShareSplitsNodeBandwidth) {
  const auto& p = instance_by_abbrev("TRC");
  MemorySystem mem(p);
  const real_t full = mem.ideal_node_bandwidth(40.0).value();
  EXPECT_NEAR(mem.task_bandwidth(40).value(), full / 40.0, 1e-9);
}

TEST(Interconnect, EcBeatsNoEcAndTrcBeatsBoth) {
  Interconnect ec(instance_by_abbrev("CSP-2 EC"));
  Interconnect noec(instance_by_abbrev("CSP-2"));
  Interconnect trc(instance_by_abbrev("TRC"));
  for (real_t bytes : {0.0, 1024.0, 65536.0, 1048576.0}) {
    EXPECT_LT(ec.message_time(units::Bytes(bytes), true).value(),
              noec.message_time(units::Bytes(bytes), true).value());
    EXPECT_LT(trc.message_time(units::Bytes(bytes), true).value(),
              ec.message_time(units::Bytes(bytes), true).value());
  }
}

TEST(Interconnect, IntranodeFasterThanInternode) {
  Interconnect net(instance_by_abbrev("CSP-2"));
  for (real_t bytes : {0.0, 4096.0, 1048576.0}) {
    EXPECT_LT(net.message_time(units::Bytes(bytes), false).value(),
              net.message_time(units::Bytes(bytes), true).value());
  }
}

TEST(Interconnect, TimeIsMonotoneInSize) {
  Interconnect net(instance_by_abbrev("CSP-1"));
  real_t prev = net.message_time(units::Bytes(0.0), true).value();
  for (real_t bytes = 1.0; bytes <= 1 << 22; bytes *= 4.0) {
    const real_t t = net.message_time(units::Bytes(bytes), true).value();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Interconnect, EffectiveLatencyGrowsWithSize) {
  // The deliberate nonlinearity: zero-anchored linear fits underestimate
  // latency at large sizes (paper Section III-E).
  Interconnect net(instance_by_abbrev("CSP-2"));
  const real_t l0 = net.message_time(units::Bytes(0.0), true).value();
  const real_t big = 4.0 * 1024 * 1024;
  const real_t linear_estimate =
      l0 + big / instance_by_abbrev("CSP-2").inter.bandwidth.value();
  EXPECT_GT(net.message_time(units::Bytes(big), true).value(),
            linear_estimate);
}

TEST(NoiseModel, DeterministicAndCentered) {
  NoiseModel noise(instance_by_abbrev("CSP-2 Small"));
  EXPECT_DOUBLE_EQ(noise.factor(1, 6, 0), noise.factor(1, 6, 0));
  real_t sum = 0.0;
  index_t n = 0;
  for (index_t day = 0; day < 7; ++day) {
    for (index_t hour = 0; hour < 24; hour += 6) {
      sum += noise.factor(day, hour, 0);
      ++n;
    }
  }
  EXPECT_NEAR(sum / static_cast<real_t>(n), 1.0, 0.02);
}

// NoiseModel hashes the instance once, at construction; every draw must
// keep the bits it had when factor() hashed the instance per call.
TEST(NoiseModel, FactorBitsPinned) {
  struct Pinned {
    const char* abbrev;
    std::uint64_t bits[4];
  };
  constexpr index_t kWhen[4][3] = {
      {0, 0, 0}, {1, 6, 42}, {3, 13, 777}, {6, 23, 1048575}};
  constexpr Pinned kPinned[] = {
      {"TRC", {0x3ff04290b7772c91ULL, 0x3feff8daed140631ULL,
               0x3ff00974b2d7d656ULL, 0x3fefa66fb9bf3e11ULL}},
      {"CSP-1", {0x3ff002f8a8229b62ULL, 0x3feff71d37daf8b9ULL,
                 0x3feff0f36390f1c8ULL, 0x3fef3620d387b9fbULL}},
      {"CSP-2 Small", {0x3ff02437af715766ULL, 0x3ff00427a42195e7ULL,
                       0x3ff03ee1e62f70f5ULL, 0x3fefa1e2ffbc3693ULL}},
      {"CSP-2", {0x3ff04992599d50eaULL, 0x3ff031482965bf73ULL,
                 0x3fefb46aa9a61657ULL, 0x3ff00299542d2e8cULL}},
      {"CSP-2 EC", {0x3ff0148fac41aa46ULL, 0x3ff028caeb22c518ULL,
                    0x3feff2c25543f20aULL, 0x3fefe87ff79596daULL}},
      {"CSP-2 GPU", {0x3ff0538d4efe85bcULL, 0x3ff037b53fe125f8ULL,
                     0x3fefed8d2282714bULL, 0x3fefdcfdb9c37472ULL}},
      {"CSP-2 Hyp.", {0x3feee4168a9cbac3ULL, 0x3ff0151c48c067a2ULL,
                      0x3fefed0bfe41c14fULL, 0x3fefe90202f69544ULL}},
  };
  ASSERT_EQ(default_catalog().size(), std::size(kPinned));
  for (const Pinned& pinned : kPinned) {
    const NoiseModel noise(instance_by_abbrev(pinned.abbrev));
    for (std::size_t i = 0; i < 4; ++i) {
      const auto& [day, hour, slot] = kWhen[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(noise.factor(day, hour, slot)),
                pinned.bits[i])
          << pinned.abbrev << " at (" << day << ", " << hour << ", " << slot
          << ")";
    }
  }
}

class WorkloadFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    geo_ = geometry::make_cylinder({.radius = 6, .length = 48});
    mesh_ = std::make_unique<lbm::FluidMesh>(lbm::FluidMesh::build(geo_.grid));
  }

  WorkloadPlan plan(index_t n_tasks, index_t tasks_per_node) const {
    const auto part =
        decomp::make_partition(*mesh_, n_tasks, decomp::Strategy::kRcb);
    return make_workload_plan(*mesh_, part, lbm::KernelConfig{},
                              tasks_per_node, "cyl");
  }

  WorkloadPlan gpu_plan(index_t n_tasks, index_t gpus_per_node) const {
    const auto part =
        decomp::make_partition(*mesh_, n_tasks, decomp::Strategy::kRcb);
    return make_gpu_workload_plan(*mesh_, part, lbm::KernelConfig{},
                                  gpus_per_node, "cyl-gpu");
  }

  geometry::Geometry geo_{"", geometry::VoxelGrid(1, 1, 1), {}};
  std::unique_ptr<lbm::FluidMesh> mesh_;
};

TEST_F(WorkloadFixture, PlanLaysOutNodesContiguously) {
  const WorkloadPlan p = plan(72, 36);
  EXPECT_EQ(p.n_nodes, 2);
  EXPECT_EQ(p.task_node[0], 0);
  EXPECT_EQ(p.task_node[35], 0);
  EXPECT_EQ(p.task_node[36], 1);
  EXPECT_EQ(p.task_node[71], 1);
  // Messages crossing the node boundary are marked internode.
  bool saw_internode = false, saw_intranode = false;
  for (const auto& m : p.messages) {
    const bool crosses = p.task_node[static_cast<std::size_t>(m.from)] !=
                         p.task_node[static_cast<std::size_t>(m.to)];
    EXPECT_EQ(m.internode, crosses);
    saw_internode |= crosses;
    saw_intranode |= !crosses;
  }
  EXPECT_TRUE(saw_internode);
  EXPECT_TRUE(saw_intranode);
}

TEST_F(WorkloadFixture, ExecuteProducesPositiveThroughput) {
  const auto& profile = instance_by_abbrev("CSP-2");
  VirtualCluster vc(profile);
  const auto result = vc.execute(plan(36, 36), 1000, {});
  EXPECT_GT(result.mflups.value(), 0.0);
  EXPECT_GT(result.step_seconds.value(), 0.0);
  EXPECT_NEAR(result.total_seconds.value(),
              result.step_seconds.value() * 1000.0, 1e-9);
  EXPECT_GT(result.critical.mem_s.value(), 0.0);
}

TEST_F(WorkloadFixture, MoreTasksWithinNodeIncreaseThroughput) {
  const auto& profile = instance_by_abbrev("CSP-2");
  VirtualCluster vc(profile);
  const real_t m4 = vc.execute(plan(4, 36), 100, {}).mflups.value();
  const real_t m16 = vc.execute(plan(16, 36), 100, {}).mflups.value();
  EXPECT_GT(m16, m4);
}

TEST_F(WorkloadFixture, EcOutperformsNoEcAtMultiNodeScale) {
  // Same workload, 4 nodes: the EC interconnect must win (paper Table III
  // and Fig. 3 discussion).
  const WorkloadPlan p = plan(144, 36);
  VirtualCluster ec(instance_by_abbrev("CSP-2 EC"));
  VirtualCluster noec(instance_by_abbrev("CSP-2"));
  EXPECT_GT(ec.execute(p, 100, {}).mflups.value(),
            noec.execute(p, 100, {}).mflups.value());
}

TEST_F(WorkloadFixture, NoiseVariesByMeasurementContext) {
  const auto& profile = instance_by_abbrev("CSP-2 Small");
  VirtualCluster vc(profile);
  const WorkloadPlan p = plan(16, 8);
  const real_t a = vc.execute(p, 100, {0, 0, 0}).mflups.value();
  const real_t b = vc.execute(p, 100, {3, 12, 0}).mflups.value();
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, b, a * 0.2);  // but within noise scale
}

TEST_F(WorkloadFixture, BreakdownsCoverAllTasks) {
  const auto& profile = instance_by_abbrev("TRC");
  VirtualCluster vc(profile);
  const WorkloadPlan p = plan(20, 40);
  const auto breakdowns = vc.task_breakdowns(p);
  ASSERT_EQ(static_cast<index_t>(breakdowns.size()), 20);
  for (const auto& b : breakdowns) {
    EXPECT_GT(b.mem_s.value(), 0.0);
    EXPECT_GE(b.total().value(), b.mem_s.value());
  }
}

std::uint64_t bits(real_t x) { return std::bit_cast<std::uint64_t>(x); }

// Bit-for-bit equality of every ExecutionResult field.
void expect_same_result(const ExecutionResult& a, const ExecutionResult& b) {
  EXPECT_EQ(bits(a.step_seconds.value()), bits(b.step_seconds.value()));
  EXPECT_EQ(bits(a.total_seconds.value()), bits(b.total_seconds.value()));
  EXPECT_EQ(bits(a.mflups.value()), bits(b.mflups.value()));
  EXPECT_EQ(a.critical_task, b.critical_task);
  EXPECT_EQ(bits(a.critical.mem_s.value()), bits(b.critical.mem_s.value()));
  EXPECT_EQ(bits(a.critical.overhead_s.value()),
            bits(b.critical.overhead_s.value()));
  EXPECT_EQ(bits(a.critical.intra_s.value()),
            bits(b.critical.intra_s.value()));
  EXPECT_EQ(bits(a.critical.inter_s.value()),
            bits(b.critical.inter_s.value()));
  EXPECT_EQ(bits(a.critical.xfer_s.value()), bits(b.critical.xfer_s.value()));
}

// Executing a precomputed critical path is the plan overload, bit for bit,
// across many noise draws and step counts: CPU plans within one node and
// across nodes, and a GPU plan on a GPU instance.
TEST_F(WorkloadFixture, CriticalPathExecutesBitIdenticalToPlan) {
  const VirtualCluster cpu(instance_by_abbrev("CSP-2"));
  const VirtualCluster gpu(instance_by_abbrev("CSP-2 GPU"));
  const struct {
    const VirtualCluster* vc;
    WorkloadPlan plan;
  } cases[] = {{&cpu, plan(4, 36)},
               {&cpu, plan(36, 36)},
               {&cpu, plan(144, 36)},
               {&gpu, gpu_plan(8, 4)}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.plan.label + " x" + std::to_string(c.plan.n_tasks));
    const CriticalPath path = c.vc->critical_path(c.plan);
    for (index_t i = 0; i < 60; ++i) {
      const MeasurementContext when{i % 7, (5 * i) % 24, 7919 * i};
      const index_t steps = 1 + 37 * i;
      expect_same_result(
          c.vc->execute(path, c.plan.total_points, steps, when),
          c.vc->execute(c.plan, steps, when));
    }
  }
}

// Two tasks with identical work and no messages: the tie goes to the
// lowest index. Making the second task heavier moves the critical task.
TEST(CriticalPath, TiesGoToLowestIndex) {
  WorkloadPlan p;
  p.n_tasks = 2;
  p.tasks_per_node = 2;
  p.n_nodes = 1;
  p.total_points = 200;
  p.task_bytes = {units::Bytes(1e6), units::Bytes(1e6)};
  p.task_points = {100, 100};
  p.task_node = {0, 0};
  p.traits = lbm::kernel_traits(p.kernel);

  const VirtualCluster vc(instance_by_abbrev("CSP-2"));
  const auto breakdowns = vc.task_breakdowns(p);
  ASSERT_EQ(bits(breakdowns[0].total().value()),
            bits(breakdowns[1].total().value()));
  const CriticalPath tie = vc.critical_path(p);
  EXPECT_EQ(tie.task, 0);
  EXPECT_EQ(bits(tie.total.value()), bits(breakdowns[0].total().value()));
  EXPECT_EQ(vc.execute(p, 10, {}).critical_task, 0);

  p.task_bytes[1] = units::Bytes(2e6);
  const CriticalPath heavier = vc.critical_path(p);
  EXPECT_EQ(heavier.task, 1);
  EXPECT_EQ(bits(heavier.total.value()),
            bits(vc.task_breakdowns(p)[1].total().value()));
}

}  // namespace
}  // namespace hemo::cluster
