// Tests for the campaign tracker (iterative refinement) and the
// model-driven job guard (overrun protection).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>

#include "check/generators.hpp"
#include "check/property.hpp"
#include "core/campaign.hpp"
#include "core/persistence.hpp"

namespace hemo::core {
namespace {

Observation obs(real_t predicted, real_t measured) {
  return Observation{"aorta", "CSP-2", 36, units::Mflups(predicted),
                     units::Mflups(measured)};
}

TEST(CampaignTracker, EmptyTrackerIsNeutral) {
  CampaignTracker t;
  EXPECT_DOUBLE_EQ(t.correction_factor(), 1.0);
  EXPECT_DOUBLE_EQ(t.refined_mflups(units::Mflups(50.0)).value(), 50.0);
  EXPECT_DOUBLE_EQ(t.mean_abs_relative_error(), 0.0);
}

TEST(CampaignTracker, LearnsConsistentOverprediction) {
  CampaignTracker t;
  // Model predicts 25 % high everywhere.
  for (real_t measured : {40.0, 80.0, 120.0}) {
    t.record(obs(measured * 1.25, measured));
  }
  EXPECT_NEAR(t.correction_factor(), 0.8, 1e-12);
  EXPECT_NEAR(t.refined_mflups(units::Mflups(100.0)).value(), 80.0, 1e-9);
  // Refinement collapses the error for a consistent bias.
  EXPECT_NEAR(t.mean_abs_relative_error(), 0.25, 1e-12);
  EXPECT_NEAR(t.refined_mean_abs_relative_error(), 0.0, 1e-12);
}

TEST(CampaignTracker, GeometricMeanIsScaleInvariant) {
  CampaignTracker t;
  t.record(obs(200.0, 100.0));  // ratio 0.5
  t.record(obs(50.0, 100.0));   // ratio 2.0
  EXPECT_NEAR(t.correction_factor(), 1.0, 1e-12);
}

TEST(CampaignTracker, RefinementImprovesNoisyButBiasedData) {
  CampaignTracker t;
  const real_t ratios[] = {0.72, 0.78, 0.81, 0.75, 0.79};
  for (real_t r : ratios) t.record(obs(100.0, 100.0 * r));
  EXPECT_LT(t.refined_mean_abs_relative_error(),
            t.mean_abs_relative_error() * 0.25);
}

TEST(CampaignTracker, RejectsNonPositiveThroughputs) {
  CampaignTracker t;
  EXPECT_THROW(t.record(obs(0.0, 10.0)), PreconditionError);
  EXPECT_THROW(t.record(obs(10.0, -1.0)), PreconditionError);
}

TEST(JobGuard, LimitsFollowToleranceAndPrice) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(3600.0);
  g.tolerance = 0.10;
  g.price_per_hour = units::DollarsPerHour(12.0);
  EXPECT_NEAR(g.max_seconds().value(), 3960.0, 1e-9);
  EXPECT_NEAR(g.max_dollars().value(), 3960.0 / 3600.0 * 12.0, 1e-9);
}

TEST(JobGuard, AbortsWhenHardLimitExceeded) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  g.tolerance = 0.10;
  EXPECT_TRUE(g.should_abort(units::Seconds(111.0), 0.9));
  EXPECT_FALSE(g.should_abort(units::Seconds(50.0), 0.5));
}

TEST(JobGuard, AbortsOnProjectedOverrun) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  g.tolerance = 0.10;
  // 30 s elapsed for 20 % done projects to 150 s > 110 s: flag it early.
  EXPECT_TRUE(g.should_abort(units::Seconds(30.0), 0.2));
  // On pace: 22 s for 20 % projects exactly to the limit.
  EXPECT_FALSE(g.should_abort(units::Seconds(21.9), 0.2));
}

TEST(JobGuard, ExactToleranceBoundary) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  g.tolerance = 0.10;
  // The hard limit is inclusive: landing exactly on max_seconds() stops
  // the job ...
  EXPECT_TRUE(g.should_abort(g.max_seconds(), 0.5));
  // ... but a pace that *projects* exactly onto the limit is still
  // acceptable (strict overshoot required): 22 s for 20 % -> 110 s == max.
  EXPECT_FALSE(g.should_abort(units::Seconds(22.0), 0.2));
  EXPECT_TRUE(g.should_abort(units::Seconds(22.0 * (1.0 + 1e-9)), 0.2));
}

TEST(JobGuard, ZeroToleranceStopsAtThePrediction) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  g.tolerance = 0.0;
  EXPECT_NEAR(g.max_seconds().value(), 100.0, 1e-12);
  EXPECT_FALSE(g.should_abort(units::Seconds(99.0), 0.99));
  EXPECT_TRUE(g.should_abort(units::Seconds(100.0), 0.99));
}

TEST(JobGuard, RejectsFractionOutsideUnitInterval) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  EXPECT_THROW((void)g.should_abort(units::Seconds(10.0), -0.1), PreconditionError);
  EXPECT_THROW((void)g.should_abort(units::Seconds(10.0), 1.1), PreconditionError);
}

TEST(CampaignTracker, ConvergesToTrueBiasWithMoreObservations) {
  // Noisy measurements around a true 25 % overprediction: the learned
  // factor closes in on 0.75 as observations accumulate.
  CampaignTracker t;
  const real_t noise[] = {1.15, 1.08, 0.87, 1.04, 0.93, 0.96, 1.02, 0.98};
  real_t error_after_two = 0.0;
  for (std::size_t i = 0; i < std::size(noise); ++i) {
    t.record(obs(100.0, 75.0 * noise[i]));
    if (i == 1) error_after_two = std::abs(t.correction_factor() - 0.75);
  }
  const real_t error_after_eight = std::abs(t.correction_factor() - 0.75);
  EXPECT_LT(error_after_eight, error_after_two);
  EXPECT_NEAR(t.correction_factor(), 0.75, 0.02);
}

// ------------------------------------------- running aggregates vs loops

std::uint64_t bits(real_t x) { return std::bit_cast<std::uint64_t>(x); }

/// The loop forms the running aggregates replace, over `t`'s log.
real_t loop_correction(const CampaignTracker& t) {
  if (t.size() == 0) return 1.0;
  real_t log_sum = 0.0;
  for (const Observation& o : t.observations()) {
    log_sum += std::log(o.measured_mflups / o.predicted_mflups);
  }
  return std::exp(log_sum / static_cast<real_t>(t.size()));
}

real_t loop_abs_error(const CampaignTracker& t, real_t c) {
  if (t.size() == 0) return 0.0;
  real_t acc = 0.0;
  for (const Observation& o : t.observations()) {
    acc += std::abs((o.predicted_mflups * c - o.measured_mflups).value()) /
           o.measured_mflups.value();
  }
  return acc / static_cast<real_t>(t.size());
}

/// Every O(1) query of `t` against the loop forms, bit for bit; for each
/// key (and one never recorded), against a tracker of that key alone.
std::optional<std::string> aggregates_mismatch(const CampaignTracker& t) {
  if (bits(t.correction_factor()) != bits(loop_correction(t))) {
    return "correction_factor differs from the loop form";
  }
  if (bits(t.mean_abs_relative_error()) != bits(loop_abs_error(t, 1.0))) {
    return "mean_abs_relative_error differs from the loop form";
  }
  if (bits(t.refined_mean_abs_relative_error()) !=
      bits(loop_abs_error(t, loop_correction(t)))) {
    return "refined_mean_abs_relative_error differs from the loop form";
  }
  std::set<std::string> keys = {"never-recorded"};
  for (const Observation& o : t.observations()) keys.insert(o.workload);
  for (const std::string& key : keys) {
    CampaignTracker alone;
    for (const Observation& o : t.observations()) {
      if (o.workload == key) alone.record(o);
    }
    if (t.count_for(key) != alone.size()) return "count_for(" + key + ")";
    const real_t expected = alone.size() > 0 ? loop_correction(alone)
                                             : loop_correction(t);
    if (bits(t.correction_factor_for(key)) != bits(expected)) {
      return "correction_factor_for(" + key + ")";
    }
  }
  return std::nullopt;
}

TEST(CampaignTrackerProperty, RunningAggregatesMatchLoopFormsBitForBit) {
  check::Property<std::vector<Observation>> p;
  p.name = "tracker running aggregates";
  p.generate = [](Xoshiro256& rng) {
    return check::gen_observations(rng, 3 + rng.below(60));
  };
  p.check = [](const std::vector<Observation>& observations)
      -> std::optional<std::string> {
    CampaignTracker t;
    for (const Observation& o : observations) t.record(o);
    if (auto bad = aggregates_mismatch(t)) return *bad;

    std::stringstream saved;
    save_campaign(t, saved);
    const CampaignTracker loaded = load_campaign(saved);
    if (auto bad = aggregates_mismatch(loaded)) {
      return "after save/load: " + *bad;
    }
    if (bits(loaded.correction_factor()) != bits(t.correction_factor())) {
      return std::string("save/load changed correction_factor");
    }
    return std::nullopt;
  };
  p.describe = [](const std::vector<Observation>& observations) {
    std::string out = std::to_string(observations.size()) + " observations:";
    for (const Observation& o : observations) out += " " + o.workload;
    return out;
  };
  check::PropertyConfig config;
  config.cases = 60;
  const check::PropertyResult r = check::run_property(p, config);
  EXPECT_TRUE(r.passed) << r.summary();
}

TEST(JobGuard, NoProgressYetOnlyHardLimitApplies) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  EXPECT_FALSE(g.should_abort(units::Seconds(5.0), 0.0));
  EXPECT_TRUE(g.should_abort(units::Seconds(120.0), 0.0));
}

}  // namespace
}  // namespace hemo::core
