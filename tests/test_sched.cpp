// Tests for the campaign scheduler & concurrent execution engine:
// placement against bounded capacity, the overrun-guard requeue path, spot
// preemption with checkpoint/restart resume, mid-campaign refinement, and
// the determinism contract (same seed => byte-identical report, any worker
// count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "sched/executor.hpp"
#include "sched/guard.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace hemo::sched {
namespace {

std::vector<const cluster::InstanceProfile*> small_profiles() {
  return {&cluster::instance_by_abbrev("CSP-1"),
          &cluster::instance_by_abbrev("CSP-2 Small")};
}

SchedulerConfig small_config() {
  SchedulerConfig config;
  config.core_counts = {8, 16, 32};
  return config;
}

std::unique_ptr<CampaignScheduler> make_scheduler(
    SchedulerConfig config,
    std::vector<const cluster::InstanceProfile*> profiles = small_profiles()) {
  auto scheduler =
      std::make_unique<CampaignScheduler>(std::move(profiles), config);
  const std::vector<index_t> cal_counts = {2, 4, 8, 16};
  scheduler->register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      cal_counts);
  return scheduler;
}

CampaignJobSpec cylinder_job(index_t id, index_t timesteps) {
  CampaignJobSpec spec;
  spec.id = id;
  spec.geometry = "cylinder";
  spec.timesteps = timesteps;
  return spec;
}

TEST(SchedPlacement, RespectsBoundedPoolCapacity) {
  auto scheduler = make_scheduler(small_config());
  const CampaignJobSpec spec = cylinder_job(1, 10000);
  PlacementRequest request;
  request.spec = &spec;
  request.remaining_steps = spec.timesteps;

  const auto first = scheduler->place(request);
  ASSERT_EQ(first.kind, PlacementDecision::Kind::kPlaced);
  EXPECT_GE(first.placement.n_nodes, 1);
  EXPECT_GT(first.placement.predicted_seconds.value(), 0.0);
  EXPECT_GT(first.placement.predicted_mflups.value(), 0.0);

  // Fill both pools completely: the same job must now wait, not fail.
  Placement all_csp1;
  all_csp1.instance = "CSP-1";
  all_csp1.n_nodes = scheduler->free_nodes("CSP-1");
  scheduler->reserve(all_csp1);
  Placement all_small;
  all_small.instance = "CSP-2 Small";
  all_small.n_nodes = scheduler->free_nodes("CSP-2 Small");
  scheduler->reserve(all_small);

  const auto blocked = scheduler->place(request);
  EXPECT_EQ(blocked.kind, PlacementDecision::Kind::kWait);

  scheduler->release(all_csp1);
  scheduler->release(all_small);
  const auto again = scheduler->place(request);
  EXPECT_EQ(again.kind, PlacementDecision::Kind::kPlaced);
}

TEST(SchedPlacement, ImpossibleConstraintsAreInfeasible) {
  auto scheduler = make_scheduler(small_config());
  CampaignJobSpec spec = cylinder_job(1, 100000);
  // No option's guard ceiling fits this budget.
  spec.budget_dollars = units::Dollars(1e-6);
  PlacementRequest request;
  request.spec = &spec;
  request.remaining_steps = spec.timesteps;
  request.remaining_budget = spec.budget_dollars;
  const auto decision = scheduler->place(request);
  EXPECT_EQ(decision.kind, PlacementDecision::Kind::kInfeasible);
  EXPECT_FALSE(decision.reason.empty());
}

TEST(SchedEngine, RejectsZeroStepJobs) {
  auto scheduler = make_scheduler(small_config());
  CampaignEngine engine(*scheduler, EngineConfig{});
  EXPECT_THROW((void)engine.run({cylinder_job(1, 0)}), PreconditionError);
}

// Acceptance (a): a job whose simulated runtime exceeds the model
// prediction by more than the tolerance is hard-stopped by the guard and
// requeued; the refreshed (refined) prediction lets the requeued attempt
// finish from its checkpoint.
TEST(SchedEngine, OverrunGuardKillsAndRequeuesJob) {
  SchedulerConfig config = small_config();
  config.pilot_steps = 0;  // cold model: raw predictions overshoot by the
                           // hidden efficiency factor, far past 10 %
  config.guard_tolerance = 0.10;
  auto scheduler = make_scheduler(config);

  EngineConfig engine_config;
  engine_config.n_workers = 2;
  engine_config.seed = 7;
  CampaignEngine engine(*scheduler, engine_config);
  const auto report = engine.run({cylinder_job(1, 20000)});

  ASSERT_EQ(report.jobs.size(), 1u);
  const JobReportRow& job = report.jobs.front();
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_GE(job.overruns, 1);
  EXPECT_GE(job.attempts, 2);
  EXPECT_GE(report.total_requeues, 1);
  // The requeued attempt was placed with the refreshed model: the tracker
  // learned from the killed attempt's measurement.
  EXPECT_GT(scheduler->tracker().size(), 0);
  EXPECT_LT(scheduler->tracker().correction_factor(), 1.0);
}

// Acceptance (b): a preempted spot job resumes from its checkpoint and
// still completes the full step count, paying the preemption losses.
TEST(SchedEngine, SpotJobResumesFromCheckpointAndCompletes) {
  SchedulerConfig config = small_config();
  config.guard_tolerance = 0.50;  // isolate preemption from the guard
  config.spot.preemptions_per_hour = units::PerHour(40.0);
  auto scheduler = make_scheduler(config);

  EngineConfig engine_config;
  engine_config.n_workers = 2;
  engine_config.seed = 11;
  engine_config.max_preemptions = 16;
  CampaignEngine engine(*scheduler, engine_config);

  CampaignJobSpec spec = cylinder_job(1, 400000);
  spec.allow_spot = true;
  const auto report = engine.run({spec});

  ASSERT_EQ(report.jobs.size(), 1u);
  const JobReportRow& job = report.jobs.front();
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_TRUE(job.spot);
  EXPECT_GE(job.preemptions, 1);
  EXPECT_GT(job.dollars.value(), 0.0);
}

// The same preemption stream replayed directly through simulate_attempt:
// lost chunks are redone (compute covers every completed step exactly
// once) and the preemption losses appear in the occupancy, not the
// productive compute.
TEST(SchedGuard, AttemptAccountsPreemptionLosses) {
  auto scheduler = make_scheduler(small_config());
  const CampaignJobSpec spec = cylinder_job(1, 100000);
  PlacementRequest request;
  request.spec = &spec;
  request.remaining_steps = spec.timesteps;
  const auto decision = scheduler->place(request);
  ASSERT_EQ(decision.kind, PlacementDecision::Kind::kPlaced);

  AttemptContext ctx;
  ctx.plan = &scheduler->plan_for("cylinder", decision.placement.instance,
                                  decision.placement.n_tasks);
  ctx.profile = &scheduler->profile_for(decision.placement.instance);
  ctx.placement = decision.placement;
  ctx.placement.spot = true;
  ctx.guard.predicted_seconds = decision.placement.predicted_seconds * 10.0;
  ctx.steps = spec.timesteps;
  ctx.seed = 123;
  ctx.spot.preemptions_per_hour = units::PerHour(60.0);
  ctx.max_preemptions = 64;

  const AttemptResult result = simulate_attempt(ctx);
  EXPECT_EQ(result.steps_done, spec.timesteps);
  EXPECT_FALSE(result.overrun_aborted);
  EXPECT_GE(result.preemptions, 1);
  // Occupancy strictly exceeds productive compute: lost partial chunks
  // plus one restart overhead per preemption.
  EXPECT_GT(result.sim_seconds.value(), result.compute_seconds.value());
  EXPECT_GT((result.sim_seconds - result.compute_seconds).value(),
            static_cast<real_t>(result.preemptions) *
                ctx.spot.restart_overhead_s.value());
}

TEST(SchedGuard, ResolutionScalingPreservesNoiseAndBaseCase) {
  auto scheduler = make_scheduler(small_config());
  const auto& plan = scheduler->plan_for("cylinder", "CSP-1", 16);
  const cluster::VirtualCluster vc(scheduler->profile_for("CSP-1"));
  const auto result = vc.execute(plan, 100, {1, 12, 3});
  EXPECT_DOUBLE_EQ(scaled_step_seconds(result, 1.0).value(),
                   result.step_seconds.value());
  // 8x the points: memory term x8, halo surface x4 — the scaled step lies
  // strictly between those bounds.
  const units::Seconds scaled = scaled_step_seconds(result, 8.0);
  EXPECT_GT(scaled.value(), 4.0 * result.step_seconds.value());
  EXPECT_LT(scaled.value(), 8.0 * result.step_seconds.value() + 1e-12);
}

// On the on-demand, fault-free path an attempt is the per-chunk sum of
// rescaled plan executions, bit for bit: a reference loop that executes the
// whole plan every chunk, drawing the measurement contexts from the same
// stream in the same order, reaches the same totals.
TEST(SchedGuard, AttemptMatchesPerChunkPlanExecution) {
  auto scheduler = make_scheduler(small_config());
  const auto& plan = scheduler->plan_for("cylinder", "CSP-1", 16);
  const auto& profile = scheduler->profile_for("CSP-1");
  const cluster::VirtualCluster vc(profile);

  for (const index_t n_chunks : {1, 7, 2000}) {
    for (const real_t factor : {1.0, 8.0}) {
      SCOPED_TRACE("chunks " + std::to_string(n_chunks) + " resolution " +
                   std::to_string(factor));
      AttemptContext ctx;
      ctx.plan = &plan;
      ctx.profile = &profile;
      ctx.placement.instance = "CSP-1";
      ctx.placement.cost_rate_per_hour = units::DollarsPerHour(7.25);
      ctx.guard.predicted_seconds = units::Seconds(1e12);
      ctx.steps = 10007;
      ctx.resolution_factor = factor;
      ctx.n_chunks = n_chunks;
      ctx.seed = 0x5eed + static_cast<std::uint64_t>(n_chunks);
      const AttemptResult got = simulate_attempt(ctx);

      Xoshiro256 rng(ctx.seed);
      const index_t chunk_steps = (ctx.steps + n_chunks - 1) / n_chunks;
      units::Seconds compute;
      index_t done = 0;
      while (done < ctx.steps) {
        const index_t steps = std::min(chunk_steps, ctx.steps - done);
        const cluster::MeasurementContext when{rng.below(7), rng.below(24),
                                               rng.below(1 << 20)};
        compute += scaled_step_seconds(vc.execute(plan, steps, when), factor) *
                   static_cast<real_t>(steps);
        done += steps;
      }
      const real_t points = static_cast<real_t>(plan.total_points) * factor;
      const units::Mflups mflups(points * static_cast<real_t>(done) /
                                 (compute.value() * 1e6));

      EXPECT_FALSE(got.overrun_aborted);
      EXPECT_EQ(got.steps_done, done);
      EXPECT_EQ(got.sim_seconds.value(), compute.value());
      EXPECT_EQ(got.compute_seconds.value(), compute.value());
      EXPECT_EQ(got.dollars.value(),
                (units::to_hours(compute) * ctx.placement.cost_rate_per_hour)
                    .value());
      EXPECT_EQ(got.measured_mflups.value(), mflups.value());
    }
  }
}

// Acceptance (c): two runs of a 20-job concurrent campaign with the same
// seed produce byte-identical reports — and the worker count does not
// matter either, because campaign time is virtual and attempts are pure.
TEST(SchedEngine, TwentyJobCampaignIsDeterministic) {
  const auto run_campaign = [](index_t n_workers) {
    SchedulerConfig config = small_config();
    config.spot.preemptions_per_hour = units::PerHour(10.0);
    auto scheduler = make_scheduler(config);
    EngineConfig engine_config;
    engine_config.n_workers = n_workers;
    engine_config.seed = 2026;
    CampaignEngine engine(*scheduler, engine_config);

    std::vector<CampaignJobSpec> jobs;
    for (index_t i = 0; i < 20; ++i) {
      CampaignJobSpec spec = cylinder_job(i + 1, 20000 + 7000 * (i % 4));
      spec.allow_spot = (i % 3 == 0);
      jobs.push_back(spec);
    }
    return engine.run(jobs).to_csv();
  };

  const std::string a = run_campaign(4);
  const std::string b = run_campaign(4);
  EXPECT_EQ(a, b) << "same seed, same worker count must be byte-identical";
  const std::string c = run_campaign(1);
  EXPECT_EQ(a, c) << "worker count must not affect the report";
}

// The mid-campaign refinement loop measurably improves predictions: the
// late half of the error trajectory is tighter than the early half.
TEST(SchedEngine, RefinementTightensPredictionsOverCampaign) {
  SchedulerConfig config = small_config();
  config.pilot_steps = 0;  // start cold so there is something to learn
  config.guard_tolerance = 0.60;  // let early mispredictions run through
  // A single three-node pool throttles the first wave, so later waves are
  // placed only after completed measurements have refined the model.
  auto scheduler =
      make_scheduler(config, {&cluster::instance_by_abbrev("CSP-1")});
  EngineConfig engine_config;
  engine_config.n_workers = 4;
  engine_config.seed = 5;
  CampaignEngine engine(*scheduler, engine_config);

  std::vector<CampaignJobSpec> jobs;
  for (index_t i = 0; i < 12; ++i) {
    jobs.push_back(cylinder_job(i + 1, 20000));
  }
  const auto report = engine.run(jobs);
  EXPECT_EQ(report.n_completed, 12);
  ASSERT_GE(report.error_trajectory.size(), 4u);
  EXPECT_LT(report.late_error, report.early_error);
  // Cold-start error is the hidden-efficiency gap (tens of percent); the
  // refined predictions land within a few percent.
  EXPECT_LT(report.late_error, 0.10);
}

// A placement pass evaluates each request class once per capacity change,
// not once per queued job: 300 identical jobs queued behind full pools cost
// a few place() evaluations per job (a pass per settled attempt, each a
// placement or two plus one "wait"), where one evaluation per queued job
// per pass costs ~130 per job here.
TEST(SchedEngine, PlacementPassStaysLinearInQueuedJobs) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.enable(true);

  auto scheduler = make_scheduler(small_config());
  EngineConfig engine_config;
  engine_config.n_workers = 3;
  engine_config.seed = 11;
  CampaignEngine engine(*scheduler, engine_config);
  constexpr index_t kJobs = 300;
  std::vector<CampaignJobSpec> jobs;
  for (index_t i = 0; i < kJobs; ++i) {
    jobs.push_back(cylinder_job(i + 1, 20000));
  }
  const CampaignReport report = engine.run(jobs);

  real_t evaluations = 0.0, placed = 0.0;
  for (const obs::MetricSnapshot& snap : metrics.snapshot()) {
    if (snap.name != "sched_place_total") continue;
    evaluations += snap.value;
    for (const auto& [key, value] : snap.labels) {
      if (key == "outcome" && value == "placed") placed += snap.value;
    }
  }
  metrics.enable(false);
  metrics.reset();

  index_t attempts = 0;
  for (const JobReportRow& row : report.jobs) attempts += row.attempts;
  EXPECT_EQ(report.n_jobs, kJobs);
  EXPECT_EQ(placed, static_cast<real_t>(attempts));
  EXPECT_LE(evaluations, 4.0 * kJobs);
}

}  // namespace
}  // namespace hemo::sched
