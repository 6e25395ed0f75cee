// Slow-tier validation: the full differential-oracle suite and the
// mutation self-test, exactly as `hemocloud_cli check` / `mutate` run them.
// These take tens of seconds (LBM calibration + oracle grids), so they are
// labelled "slow" in ctest and excluded from the tier-1 wall (`ctest -L
// tier1`); CI runs them in a dedicated step and under sanitizers.
#include <gtest/gtest.h>

#include "check/mutation.hpp"
#include "check/oracles.hpp"

namespace hemo::check {
namespace {

/// One calibrated context shared across the suite: building it costs more
/// than any single oracle run, and every consumer restores what it mutates.
OracleContext& shared_context() {
  static OracleContext ctx = OracleContext::make_default();
  return ctx;
}

PropertyConfig slow_config() {
  PropertyConfig config;
  config.seed = 42;
  config.cases = 40;
  return config;
}

TEST(CheckSlow, AllOraclesPassAtFullCaseCount) {
  const auto results = run_all_oracles(shared_context(), slow_config());
  ASSERT_GE(results.size(), 3u);
  for (const PropertyResult& r : results) {
    EXPECT_TRUE(r.passed) << r.summary();
    EXPECT_GE(r.cases_run, 1);
  }
}

TEST(CheckSlow, OracleSuiteReplaysByteIdentically) {
  const auto a = run_all_oracles(shared_context(), slow_config());
  const auto b = run_all_oracles(shared_context(), slow_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].summary(), b[i].summary())
        << "oracle " << a[i].name << " is not replay-stable";
  }
}

// The teeth proof: every seeded coefficient perturbation must be caught by
// the oracle its error routes to (a2 feeds both predictors through the
// bandwidth law, so only the measurement oracle sees it; the fitted comm
// and workload laws feed only the generalized model, so the agreement
// oracle sees those). A mutation that survives here means the band is too
// wide or the coefficient is dead weight.
TEST(CheckSlow, MutationSelfTestDetectsEveryPerturbation) {
  const MutationReport report =
      run_mutation_suite(shared_context(), slow_config());
  EXPECT_TRUE(report.baseline_passed) << report.summary();
  ASSERT_EQ(report.outcomes.size(), 6u);
  for (const MutationOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.detected) << o.coefficient << " escaped oracle " << o.oracle
                            << ": " << o.detail;
  }
  EXPECT_TRUE(report.restored_passed)
      << "context not restored after mutations: " << report.summary();
  EXPECT_TRUE(report.all_detected());
}

}  // namespace
}  // namespace hemo::check
