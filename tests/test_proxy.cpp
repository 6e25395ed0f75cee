// Unit tests for the lbm-proxy-app equivalent.
#include <gtest/gtest.h>

#include "proxy/proxy_app.hpp"

namespace hemo::proxy {
namespace {

TEST(ProxyVariants, Fig4SetCoversLayoutsAndPatterns) {
  const auto v = fig4_variants();
  ASSERT_EQ(v.size(), 4u);
  index_t aa = 0, soa = 0;
  for (const auto& k : v) {
    if (k.propagation == lbm::Propagation::kAA) ++aa;
    if (k.layout == lbm::Layout::kSoA) ++soa;
    EXPECT_EQ(k.unroll, lbm::Unroll::kYes);
  }
  EXPECT_EQ(aa, 2);
  EXPECT_EQ(soa, 2);
}

TEST(ProxyVariants, Fig8SetIsAllSoAWithUnrollSweep) {
  const auto v = fig8_variants();
  ASSERT_EQ(v.size(), 4u);
  index_t unrolled = 0;
  for (const auto& k : v) {
    EXPECT_EQ(k.layout, lbm::Layout::kSoA);
    if (k.unroll == lbm::Unroll::kYes) ++unrolled;
  }
  EXPECT_EQ(unrolled, 2);
}

TEST(ProxySimulation, MeasuredAaBeatsAbOnVirtualCluster) {
  // Fig. 4: the AA pattern's reduced memory traffic lifts throughput.
  ProxyParams params;
  lbm::KernelConfig aa, ab;
  aa.propagation = lbm::Propagation::kAA;
  ab.propagation = lbm::Propagation::kAB;
  auto sim_aa = make_simulation(params, aa);
  auto sim_ab = make_simulation(params, ab);
  const auto& csp2 = cluster::instance_by_abbrev("CSP-2");
  EXPECT_GT(sim_aa.measure(csp2, 36, 100).mflups,
            sim_ab.measure(csp2, 36, 100).mflups);
}

TEST(ProxySimulation, UnrolledBeatsLoopedOnVirtualCluster) {
  ProxyParams params;
  lbm::KernelConfig unrolled, looped;
  looped.unroll = lbm::Unroll::kNo;
  auto a = make_simulation(params, unrolled);
  auto b = make_simulation(params, looped);
  const auto& csp2 = cluster::instance_by_abbrev("CSP-2");
  EXPECT_GT(a.measure(csp2, 36, 100).mflups,
            b.measure(csp2, 36, 100).mflups);
}

TEST(ProxySimulation, AaAdvantageVanishesWithoutUnrolling) {
  // The paper's Fig. 8 observation: AA beats AB only for unrolled kernels.
  ProxyParams params;
  lbm::KernelConfig aa_l, ab_l;
  aa_l.propagation = lbm::Propagation::kAA;
  aa_l.unroll = lbm::Unroll::kNo;
  aa_l.layout = lbm::Layout::kSoA;
  ab_l.propagation = lbm::Propagation::kAB;
  ab_l.unroll = lbm::Unroll::kNo;
  ab_l.layout = lbm::Layout::kSoA;
  auto sim_aa = make_simulation(params, aa_l);
  auto sim_ab = make_simulation(params, ab_l);
  const auto& csp2 = cluster::instance_by_abbrev("CSP-2");
  const real_t maa = sim_aa.measure(csp2, 36, 100).mflups.value();
  const real_t mab = sim_ab.measure(csp2, 36, 100).mflups.value();
  EXPECT_LT(maa, mab * 1.05);  // no meaningful AA advantage when looped
}

}  // namespace
}  // namespace hemo::proxy
