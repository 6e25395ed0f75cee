// Tests for the validation harness (src/check/): the property framework's
// replay/shrink machinery, the HEMO_SEED plumbing, the seed-driven
// generators, and the fault-injection hooks in simulate_attempt /
// CampaignEngine. The full differential-oracle and mutation suites run in
// test_check_slow.cpp (ctest label "slow").
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "check/generators.hpp"
#include "check/property.hpp"
#include "sched/executor.hpp"
#include "sched/guard.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"

namespace hemo::check {
namespace {

// ---------------------------------------------------------------- property

Property<index_t> threshold_property(index_t limit) {
  // Fails for any value >= limit; shrinking by halving must land exactly
  // on the limit — the minimal counterexample.
  Property<index_t> p;
  p.name = "threshold";
  p.generate = [](Xoshiro256& rng) { return rng.below(1000); };
  p.check = [limit](const index_t& v) -> std::optional<std::string> {
    if (v >= limit) return "value " + std::to_string(v) + " over limit";
    return std::nullopt;
  };
  p.describe = [](const index_t& v) { return std::to_string(v); };
  p.shrink = [](const index_t& v) {
    std::vector<index_t> out;
    if (v > 0) out.push_back(v / 2);
    if (v > 0) out.push_back(v - 1);
    return out;
  };
  return p;
}

TEST(PropertyFramework, PassingPropertyRunsEveryCase) {
  Property<index_t> p = threshold_property(1001);  // nothing can fail
  PropertyConfig config;
  config.seed = 7;
  config.cases = 25;
  const PropertyResult r = run_property(p, config);
  EXPECT_TRUE(r.passed);
  EXPECT_EQ(r.cases_run, 25);
  EXPECT_NE(r.summary().find("OK"), std::string::npos);
}

TEST(PropertyFramework, ShrinksToTheMinimalCounterexample) {
  const index_t limit = 10;
  Property<index_t> p = threshold_property(limit);
  PropertyConfig config;
  config.seed = 7;
  config.cases = 50;
  const PropertyResult r = run_property(p, config);
  ASSERT_FALSE(r.passed);
  // Halving/decrement shrinking from any failing value must reach the
  // boundary exactly.
  EXPECT_EQ(r.counterexample, std::to_string(limit));
  EXPECT_GT(r.shrink_steps, 0);
  EXPECT_EQ(r.failing_seed,
            hash_seed(config.seed, static_cast<std::uint64_t>(r.failing_case)));
}

TEST(PropertyFramework, FailureReplaysByteIdentically) {
  Property<index_t> p = threshold_property(10);
  PropertyConfig config;
  config.seed = 99;
  config.cases = 40;
  const PropertyResult a = run_property(p, config);
  const PropertyResult b = run_property(p, config);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.failing_case, b.failing_case);
  EXPECT_EQ(a.failing_seed, b.failing_seed);
  EXPECT_EQ(a.counterexample, b.counterexample);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(PropertyFramework, ShrinkBudgetBoundsTheSearch) {
  Property<index_t> p = threshold_property(1);  // everything nonzero fails
  PropertyConfig config;
  config.seed = 3;
  config.cases = 5;
  config.max_shrink_steps = 2;
  const PropertyResult r = run_property(p, config);
  ASSERT_FALSE(r.passed);
  EXPECT_LE(r.shrink_steps, 2);
}

TEST(PropertyFramework, DefaultSeedIsTheProcessSeed) {
  const PropertyConfig config;
  EXPECT_EQ(config.seed, global_seed());
}

// -------------------------------------------------------------------- seed

TEST(SeedParsing, AcceptsDecimalAndHex) {
  EXPECT_EQ(parse_seed("123", 7), 123u);
  EXPECT_EQ(parse_seed("0x10", 7), 16u);
  EXPECT_EQ(parse_seed("0", 7), 0u);
}

TEST(SeedParsing, FallsBackOnGarbage) {
  EXPECT_EQ(parse_seed(nullptr, 7), 7u);
  EXPECT_EQ(parse_seed("", 7), 7u);
  EXPECT_EQ(parse_seed("12abc", 7), 7u);
  EXPECT_EQ(parse_seed("seed", 7), 7u);
}

TEST(SeedParsing, GlobalSeedIsStableWithinTheProcess) {
  // The cached value must not change between calls (replay depends on it).
  EXPECT_EQ(global_seed(), global_seed());
}

// -------------------------------------------------------------- generators

TEST(Generators, GeometryIsDeterministicPerSeed) {
  Xoshiro256 a(2024), b(2024), c(2025);
  const auto ga = gen_geometry(a);
  const auto gb = gen_geometry(b);
  EXPECT_EQ(ga.name, gb.name);
  EXPECT_EQ(ga.grid.nx(), gb.grid.nx());
  EXPECT_EQ(ga.grid.nz(), gb.grid.nz());
  // A different stream picks a different shape (name or dimensions).
  const auto gc = gen_geometry(c);
  EXPECT_TRUE(gc.name != ga.name || gc.grid.nz() != ga.grid.nz());
}

TEST(Generators, GeometriesComeFromTheFiveFamilies) {
  const auto& families = geometry_families();
  ASSERT_EQ(families.size(), 5u);
  Xoshiro256 rng(11);
  std::set<std::string> seen;
  for (int i = 0; i < 40; ++i) {
    const auto geo = gen_geometry(rng);
    bool known = false;
    for (const auto& f : families) {
      if (geo.name.rfind(f, 0) == 0) known = true;
    }
    EXPECT_TRUE(known) << "unknown family for geometry " << geo.name;
    seen.insert(geo.name.substr(0, geo.name.find('-')));
    EXPECT_GT(geo.grid.nx(), 0);
  }
  EXPECT_GE(seen.size(), 3u) << "40 draws should cover several families";
}

TEST(Generators, CpuCatalogExcludesGpuAndHyperthreaded) {
  for (const cluster::InstanceProfile* p : cpu_catalog()) {
    EXPECT_FALSE(p->gpu.has_value()) << p->abbrev;
    EXPECT_NE(p->abbrev, "CSP-2 Hyp.");
  }
  EXPECT_EQ(cpu_catalog().size(), 5u);  // TRC, CSP-1, CSP-2 {Small,,EC}
}

TEST(Generators, ModelParametersStayInPhysicalRanges) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 20; ++i) {
    const auto two_line = gen_two_line_model(rng);
    EXPECT_GT(two_line.a1, two_line.a2);  // saturated slope is shallower
    EXPECT_GT(two_line.a3, 0.0);
    const auto comm = gen_comm_model(rng);
    EXPECT_GT(comm.bandwidth, 0.0);
    EXPECT_GT(comm.latency, 0.0);
    const auto imb = gen_imbalance_model(rng);
    EXPECT_GE(imb.z(8.0), 1.0);  // z >= 1 by construction
    const auto events = gen_event_count_model(rng);
    EXPECT_GT(events.k1, 0.0);
  }
}

// --------------------------------------------------------- fault injection

std::unique_ptr<sched::CampaignScheduler> fault_test_scheduler() {
  sched::SchedulerConfig config;
  config.core_counts = {8, 16, 32};
  config.pilot_steps = 120;
  auto scheduler = std::make_unique<sched::CampaignScheduler>(
      std::vector<const cluster::InstanceProfile*>{
          &cluster::instance_by_abbrev("CSP-1"),
          &cluster::instance_by_abbrev("CSP-2 Small")},
      config);
  const std::vector<index_t> cal_counts = {2, 4, 8};
  scheduler->register_workload(
      "cylinder", geometry::make_cylinder({.radius = 6, .length = 40}),
      cal_counts);
  return scheduler;
}

sched::AttemptContext make_attempt_context(sched::CampaignScheduler& s,
                                           index_t steps) {
  sched::CampaignJobSpec spec;
  spec.id = 1;
  spec.geometry = "cylinder";
  spec.timesteps = steps;
  sched::PlacementRequest request;
  request.spec = &spec;
  request.remaining_steps = steps;
  const auto decision = s.place(request);
  EXPECT_EQ(decision.kind, sched::PlacementDecision::Kind::kPlaced);

  sched::AttemptContext ctx;
  ctx.plan = &s.plan_for("cylinder", decision.placement.instance,
                         decision.placement.n_tasks);
  ctx.profile = &s.profile_for(decision.placement.instance);
  ctx.placement = decision.placement;
  ctx.guard.predicted_seconds = decision.placement.predicted_seconds;
  ctx.guard.tolerance = 0.10;
  ctx.steps = steps;
  ctx.seed = 404;
  return ctx;
}

TEST(FaultInjection, DisabledFaultsLeaveAttemptsByteIdentical) {
  auto scheduler = fault_test_scheduler();
  sched::AttemptContext ctx = make_attempt_context(*scheduler, 5000);
  EXPECT_FALSE(ctx.faults.any());

  const sched::AttemptResult a = simulate_attempt(ctx);
  sched::AttemptContext explicit_off = ctx;
  explicit_off.faults = sched::FaultInjection{};  // spelled-out defaults
  const sched::AttemptResult b = simulate_attempt(explicit_off);
  EXPECT_EQ(a.steps_done, b.steps_done);
  EXPECT_DOUBLE_EQ(a.sim_seconds.value(), b.sim_seconds.value());
  EXPECT_DOUBLE_EQ(a.compute_seconds.value(), b.compute_seconds.value());
  EXPECT_DOUBLE_EQ(a.dollars.value(), b.dollars.value());
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.checkpoint_corruptions, 0);
  EXPECT_EQ(b.checkpoint_corruptions, 0);
}

TEST(FaultInjection, SlowdownTripsTheOverrunGuard) {
  auto scheduler = fault_test_scheduler();
  sched::AttemptContext ctx = make_attempt_context(*scheduler, 5000);
  const sched::AttemptResult healthy = simulate_attempt(ctx);
  EXPECT_FALSE(healthy.overrun_aborted);

  // A 60 % slowdown against a 10 % tolerance must hard-stop the attempt
  // at a checkpoint boundary.
  ctx.faults.slowdown_factor = 1.6;
  const sched::AttemptResult slowed = simulate_attempt(ctx);
  EXPECT_TRUE(slowed.overrun_aborted);
  EXPECT_LT(slowed.steps_done, 5000);
  EXPECT_EQ(slowed.steps_done % (5000 / ctx.n_chunks), 0)
      << "guard stop must land on a checkpoint boundary";
}

TEST(FaultInjection, PreemptionStormExhaustsRetries) {
  auto scheduler = fault_test_scheduler();
  sched::AttemptContext ctx = make_attempt_context(*scheduler, 5000);
  ctx.placement.spot = true;
  ctx.guard.predicted_seconds *= 10.0;  // isolate preemption from the guard
  ctx.max_preemptions = 4;
  ctx.faults.extra_preemption_probability = 1.0;  // every chunk interrupted
  const sched::AttemptResult r = simulate_attempt(ctx);
  EXPECT_TRUE(r.retries_exhausted);
  EXPECT_EQ(r.steps_done, 0);
  EXPECT_GE(r.preemptions, ctx.max_preemptions);
}

TEST(FaultInjection, CorruptedCheckpointsAreCountedAndRedone) {
  auto scheduler = fault_test_scheduler();
  sched::AttemptContext ctx = make_attempt_context(*scheduler, 5000);
  ctx.placement.spot = true;
  // Disarm the guard completely: the 120 s restart overheads dwarf this
  // sub-second job, and this test is about corruption accounting, not
  // pacing.
  ctx.guard.predicted_seconds = units::Seconds(1e9);
  ctx.max_preemptions = 64;
  // A corruption rolls a chunk back, so keep the interruption probability
  // well under 0.5 per chunk — otherwise progress is a driftless random
  // walk that exhausts the retry bound.
  ctx.faults.extra_preemption_probability = 0.35;
  ctx.faults.checkpoint_corruption_rate = 1.0;  // every resume reloads twice
  const sched::AttemptResult r = simulate_attempt(ctx);
  EXPECT_GE(r.preemptions, 1);
  EXPECT_EQ(r.checkpoint_corruptions, r.preemptions)
      << "rate 1.0 corrupts every checkpoint read back";
  // The attempt still completes: corrupted chunks are redone.
  EXPECT_EQ(r.steps_done, 5000);
  EXPECT_GT(r.sim_seconds, r.compute_seconds);
}

TEST(FaultInjection, EngineSurfacesCorruptionsInTheReport) {
  auto scheduler = fault_test_scheduler();
  sched::EngineConfig engine_config;
  engine_config.n_workers = 2;
  engine_config.seed = 31;
  engine_config.max_preemptions = 32;
  engine_config.faults.extra_preemption_probability = 0.4;
  engine_config.faults.checkpoint_corruption_rate = 1.0;
  sched::CampaignEngine engine(*scheduler, engine_config);

  std::vector<sched::CampaignJobSpec> jobs;
  for (index_t i = 0; i < 3; ++i) {
    sched::CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = "cylinder";
    spec.timesteps = 30000;
    spec.allow_spot = true;
    jobs.push_back(spec);
  }
  const sched::CampaignReport report = engine.run(jobs);
  EXPECT_GE(report.total_corruptions, 1);
  EXPECT_NE(report.to_csv().find(",corruptions," +
                                 std::to_string(report.total_corruptions)),
            std::string::npos);
}

TEST(FaultInjection, FaultFreeEngineReportsZeroCorruptions) {
  auto scheduler = fault_test_scheduler();
  sched::CampaignEngine engine(*scheduler, sched::EngineConfig{});
  sched::CampaignJobSpec spec;
  spec.id = 1;
  spec.geometry = "cylinder";
  spec.timesteps = 5000;
  const sched::CampaignReport report = engine.run({spec});
  EXPECT_EQ(report.total_corruptions, 0);
  EXPECT_NE(report.to_csv().find(",corruptions,0"), std::string::npos);
}

}  // namespace
}  // namespace hemo::check
