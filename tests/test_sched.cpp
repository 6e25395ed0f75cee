// Tests for the campaign scheduler & concurrent execution engine:
// placement against bounded capacity, the overrun-guard requeue path, spot
// preemption with checkpoint/restart resume, mid-campaign refinement, and
// the determinism contract (same seed => byte-identical report, any worker
// count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/generators.hpp"
#include "check/property.hpp"
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
  EXPECT_DOUBLE_EQ(ResolutionScale(1.0).step_seconds(result).value(),
                   result.step_seconds.value());
  // 8x the points: memory term x8, halo surface x4 — the scaled step lies
  // strictly between those bounds.
  const units::Seconds scaled = ResolutionScale(8.0).step_seconds(result);
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
        compute += ResolutionScale(factor).step_seconds(
                       vc.execute(plan, steps, when)) *
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

/// sched_place_total over all outcomes and for "placed" alone.
struct PlaceTotals {
  real_t evaluations = 0.0;
  real_t placed = 0.0;
};

PlaceTotals place_totals(const obs::MetricsRegistry& metrics) {
  PlaceTotals totals;
  for (const obs::MetricSnapshot& snap : metrics.snapshot()) {
    if (snap.name != "sched_place_total") continue;
    totals.evaluations += snap.value;
    for (const auto& [key, value] : snap.labels) {
      if (key == "outcome" && value == "placed") totals.placed += snap.value;
    }
  }
  return totals;
}

// A waiting job's kWait answer is kept across placement passes until the
// key's correction moves or a pool frees enough nodes, so a pass only
// re-evaluates the request classes whose inputs changed. The job shape is
// the 120-job mixed-fault golden's (three geometries, 8x resolutions,
// deadlines, budgets, spot, faults, three workers). Evaluating every
// request class anew each pass costs 14.58 place() evaluations per job
// here; the cross-pass memo needs 7.57.
TEST(SchedEngine, MixedPlacementReusesDecisionsAcrossPasses) {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  SchedulerConfig config;
  config.objective = core::Objective::kMinCost;
  config.core_counts = {16, 36, 72, 144};
  CampaignScheduler scheduler(std::move(profiles), config);
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  scheduler.register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      cal_counts);
  scheduler.register_workload("aorta", geometry::make_aorta({}), cal_counts);
  scheduler.register_workload(
      "cerebral", geometry::make_cerebral({.depth = 5}), cal_counts);
  const std::vector<std::string> geometries = {"cylinder", "aorta",
                                               "cerebral"};
  constexpr index_t kJobs = 120;
  std::vector<CampaignJobSpec> jobs;
  for (index_t i = 0; i < kJobs; ++i) {
    CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = geometries[static_cast<std::size_t>(i % 3)];
    spec.resolution_factor = i % 4 == 3 ? 8.0 : 1.0;
    spec.timesteps = 20000 + 5000 * (i % 5);
    spec.allow_spot = i % 2 == 1;
    if (i % 5 == 0) spec.deadline_s = units::Seconds{600.0};
    if (i % 7 == 0) spec.budget_dollars = units::Dollars{0.01};
    jobs.push_back(spec);
  }
  EngineConfig engine_config;
  engine_config.n_workers = 3;
  engine_config.seed = 4;
  engine_config.chunks_per_attempt = 2000;
  engine_config.max_preemptions = 0;
  engine_config.faults.extra_preemption_probability = 1e-4;
  engine_config.faults.checkpoint_corruption_rate = 0.2;
  engine_config.faults.worker_crash_probability = 5e-5;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.enable(true);
  CampaignEngine engine(scheduler, engine_config);
  const CampaignReport report = engine.run(jobs);
  const PlaceTotals totals = place_totals(metrics);
  metrics.enable(false);
  metrics.reset();

  index_t attempts = 0;
  for (const JobReportRow& row : report.jobs) attempts += row.attempts;
  EXPECT_EQ(totals.placed, static_cast<real_t>(attempts));
  // At most 0.6x the 14.58 evaluations per job of per-pass evaluation.
  EXPECT_LE(totals.evaluations / static_cast<real_t>(kJobs), 8.75);
}

// ---- The placement memo's check (CampaignScheduler::still_holds) ----

/// One placement request of a memo case: a job shape plus what remains.
struct MemoRequest {
  CampaignJobSpec spec;
  index_t remaining_steps = 0;
  real_t deadline_s = 0.0;  ///< 0 = none
  real_t budget = 0.0;      ///< 0 = none
};

/// One step of a memo case.
struct MemoOp {
  enum class Kind { kAsk, kReserve, kRelease, kRecord };
  Kind kind = Kind::kAsk;
  std::size_t request = 0;  ///< kAsk, kRecord: which request (its key)
  std::size_t pool = 0;     ///< kReserve, kRecord: which instance
  index_t amount = 0;       ///< kReserve: nodes; kRelease: which hold
  real_t ratio = 1.0;       ///< kRecord: measured / predicted
};

struct MemoCase {
  std::vector<MemoRequest> requests;
  std::vector<MemoOp> ops;
};

/// The contended CPU pools (3, 16, 4 and 4 nodes): every CPU instance of
/// the check catalog but TRC, whose 50 nodes rarely fill.
std::vector<const cluster::InstanceProfile*> memo_profiles() {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const cluster::InstanceProfile* p : check::cpu_catalog()) {
    if (p->abbrev != "TRC") profiles.push_back(p);
  }
  return profiles;
}

MemoCase gen_memo_case(Xoshiro256& rng) {
  const std::vector<std::string> geometries = {"cylinder", "aorta",
                                               "cerebral"};
  MemoCase c;
  const index_t n_requests = 3 + rng.below(4);
  for (index_t i = 0; i < n_requests; ++i) {
    MemoRequest r;
    r.spec.id = i + 1;
    r.spec.geometry = check::pick(rng, geometries);
    r.spec.resolution_factor = rng.below(2) == 0 ? 1.0 : 8.0;
    r.spec.allow_spot = rng.below(2) == 0;
    r.remaining_steps = 2000 + rng.below(38000);
    // Log-uniform deadlines and budgets across the spread of the options'
    // predictions, so a request keeps all, some or none of them.
    if (rng.below(2) == 0) {
      r.deadline_s = std::pow(10.0, rng.uniform(-0.5, 2.0));
    }
    if (rng.below(3) == 0) r.budget = std::pow(10.0, rng.uniform(-3.7, -1.3));
    c.requests.push_back(r);
  }
  const index_t n_pools = static_cast<index_t>(memo_profiles().size());
  const index_t n_ops = 30 + rng.below(40);
  for (index_t i = 0; i < n_ops; ++i) {
    MemoOp op;
    // Asks and reserves 3/10 each, releases and records 2/10 each.
    const index_t kind = rng.below(10);
    op.kind = kind < 3   ? MemoOp::Kind::kAsk
              : kind < 6 ? MemoOp::Kind::kReserve
              : kind < 8 ? MemoOp::Kind::kRelease
                         : MemoOp::Kind::kRecord;
    op.request = static_cast<std::size_t>(rng.below(n_requests));
    op.pool = static_cast<std::size_t>(rng.below(n_pools));
    op.amount = 1 + rng.below(6);
    op.ratio = rng.uniform(0.3, 1.5);
    c.ops.push_back(op);
  }
  return c;
}

PlacementRequest to_request(const MemoRequest& r) {
  PlacementRequest request;
  request.spec = &r.spec;
  request.remaining_steps = r.remaining_steps;
  request.remaining_deadline_s = units::Seconds{r.deadline_s};
  request.remaining_budget = units::Dollars{r.budget};
  return request;
}

/// Applies the case's ask/reserve/release/record steps to a fresh scheduler
/// and, after each, compares every stored kWait/kInfeasible answer with a
/// fresh place(): still_holds() must accept it exactly when place() gives
/// the same answer (kind, reason, correction and wait thresholds).
std::optional<std::string> memo_mismatch(const MemoCase& c) {
  SchedulerConfig config;
  config.core_counts = {16, 36, 72, 144};
  config.pilot_steps = 0;
  CampaignScheduler scheduler(memo_profiles(), config);
  const std::vector<index_t> cal_counts = {2, 4, 8};
  scheduler.register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      cal_counts);
  scheduler.register_workload("aorta", geometry::make_aorta({}), cal_counts);
  scheduler.register_workload(
      "cerebral", geometry::make_cerebral({.depth = 4}), cal_counts);
  const auto profiles = memo_profiles();

  // The latest kWait/kInfeasible answer per request.
  std::map<std::size_t, PlacementDecision> stored;
  std::vector<Placement> held;
  for (std::size_t step = 0; step < c.ops.size(); ++step) {
    const MemoOp& op = c.ops[step];
    const std::string& instance = profiles[op.pool]->abbrev;
    switch (op.kind) {
      case MemoOp::Kind::kAsk: {
        PlacementDecision d =
            scheduler.place(to_request(c.requests[op.request]));
        if (d.kind == PlacementDecision::Kind::kPlaced) {
          scheduler.reserve(d.placement);
          held.push_back(d.placement);
        } else {
          stored.insert_or_assign(op.request, std::move(d));
        }
        break;
      }
      case MemoOp::Kind::kReserve: {
        const index_t free = scheduler.free_nodes(instance);
        if (free == 0) break;
        Placement p;
        p.instance = instance;
        p.n_nodes = std::min(op.amount, free);
        scheduler.reserve(p);
        held.push_back(p);
        break;
      }
      case MemoOp::Kind::kRelease: {
        if (held.empty()) break;
        const auto it =
            held.begin() + op.amount % static_cast<index_t>(held.size());
        scheduler.release(*it);
        held.erase(it);
        break;
      }
      case MemoOp::Kind::kRecord:
        scheduler.tracker().record(core::Observation{
            workload_key(c.requests[op.request].spec), instance, 16,
            units::Mflups(100.0), units::Mflups(100.0 * op.ratio)});
        break;
    }

    const bool idle = held.empty();
    for (const auto& [index, d] : stored) {
      const bool holds = scheduler.still_holds(d);
      const PlacementDecision fresh =
          scheduler.place(to_request(c.requests[index]));
      const bool same = fresh.kind == d.kind && fresh.reason == d.reason &&
                        fresh.correction == d.correction &&
                        fresh.wait_thresholds == d.wait_thresholds;
      const std::string where = "after step " + std::to_string(step) +
                                ", request " + std::to_string(index) + ": ";
      if (holds && !same) {
        return where + "still_holds accepted an answer place() no longer gives";
      }
      if (!holds && same) {
        return where + "still_holds rejected an answer place() still gives";
      }
      if (idle && holds && d.kind == PlacementDecision::Kind::kWait) {
        return where + "a kWait held with every pool idle";
      }
    }
  }
  return std::nullopt;
}

TEST(PlacementMemo, StoredAnswerHoldsExactlyWhilePlaceAgrees) {
  check::Property<MemoCase> p;
  p.name = "placement memo check";
  p.generate = gen_memo_case;
  p.check = memo_mismatch;
  p.describe = [](const MemoCase& c) {
    return std::to_string(c.requests.size()) + " requests, " +
           std::to_string(c.ops.size()) + " steps";
  };
  check::PropertyConfig config;
  config.cases = 20;
  const check::PropertyResult r = check::run_property(p, config);
  EXPECT_TRUE(r.passed) << r.summary();
}

}  // namespace
}  // namespace hemo::sched
