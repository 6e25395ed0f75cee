// Race-detector stress for the concurrent execution engine (labelled
// `tsan` in ctest; the CI thread-sanitizer job builds with
// HEMO_SANITIZE=thread and runs exactly this suite). Three pressure
// points:
//
//  * WorkerPool's mutex/condvar queue under many producers and workers;
//  * a full campaign under aggressive FaultInjection so the kill/requeue
//    (overrun guard), spot-preemption resume, and corrupted-checkpoint
//    reload paths all run concurrently across attempts;
//  * the determinism contract under those same faults: byte-identical
//    reports for any worker count, i.e. no interleaving-dependent state.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "sched/executor.hpp"
#include "sched/guard.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"

namespace hemo::sched {
namespace {

std::unique_ptr<CampaignScheduler> make_scheduler(SchedulerConfig config) {
  auto scheduler = std::make_unique<CampaignScheduler>(
      std::vector<const cluster::InstanceProfile*>{
          &cluster::instance_by_abbrev("CSP-1"),
          &cluster::instance_by_abbrev("CSP-2 Small")},
      config);
  const std::vector<index_t> cal_counts = {2, 4, 8, 16};
  scheduler->register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      cal_counts);
  return scheduler;
}

TEST(ExecutorStress, WorkerPoolManyProducersManyWorkers) {
  constexpr index_t kProducers = 4;
  constexpr index_t kTasksPerProducer = 64;
  WorkerPool pool(8);

  std::vector<std::future<AttemptResult>> futures(
      static_cast<std::size_t>(kProducers * kTasksPerProducer));
  std::atomic<int> started{0};
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(kProducers));
  for (index_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ++started;
      // Spin until every producer is live so submissions genuinely race.
      while (started.load() < kProducers) std::this_thread::yield();
      for (index_t i = 0; i < kTasksPerProducer; ++i) {
        const index_t tag = p * kTasksPerProducer + i;
        futures[static_cast<std::size_t>(tag)] = pool.submit([tag] {
          AttemptResult r;
          r.steps_done = tag;
          r.sim_seconds = units::Seconds(static_cast<real_t>(tag) * 0.5);
          return r;
        });
      }
    });
  }
  for (auto& t : producers) t.join();

  for (index_t tag = 0; tag < kProducers * kTasksPerProducer; ++tag) {
    const AttemptResult r = futures[static_cast<std::size_t>(tag)].get();
    EXPECT_EQ(r.steps_done, tag);
    EXPECT_EQ(r.sim_seconds.value(), static_cast<real_t>(tag) * 0.5);
  }
}

EngineConfig stress_engine_config(index_t n_workers) {
  EngineConfig config;
  config.n_workers = n_workers;
  config.seed = 1234;
  config.max_attempts = 6;
  config.max_preemptions = 12;
  // Aggressive faults: slow enough to trip the 10 % overrun guard on
  // cold-model placements, an interruption storm on spot capacity, and
  // frequent corrupted checkpoint reloads on resume.
  config.faults.slowdown_factor = 1.35;
  config.faults.extra_preemption_probability = 0.20;
  config.faults.checkpoint_corruption_rate = 0.25;
  return config;
}

SchedulerConfig stress_scheduler_config() {
  SchedulerConfig config;
  config.core_counts = {8, 16, 32};
  config.pilot_steps = 0;  // cold model: first attempts overrun and requeue
  config.spot.preemptions_per_hour = units::PerHour(1.0);
  config.spot.checkpoint_interval_s = units::Seconds(300.0);
  return config;
}

std::vector<CampaignJobSpec> stress_jobs() {
  std::vector<CampaignJobSpec> jobs;
  for (index_t i = 0; i < 10; ++i) {
    CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = "cylinder";
    spec.timesteps = 30000 + 8000 * (i % 3);
    spec.allow_spot = (i % 2 == 0);  // half the fleet preemptible
    jobs.push_back(spec);
  }
  return jobs;
}

TEST(ExecutorStress, EngineSurvivesFaultStorm) {
  auto scheduler = make_scheduler(stress_scheduler_config());
  CampaignEngine engine(*scheduler, stress_engine_config(8));
  const CampaignReport report = engine.run(stress_jobs());

  EXPECT_EQ(report.n_jobs, 10);
  EXPECT_EQ(report.n_completed + report.n_failed, report.n_jobs);
  EXPECT_GT(report.n_completed, 0);
  // The storm must actually exercise the concurrent fault paths; these
  // totals are deterministic for the fixed seed, so >0 is stable.
  EXPECT_GT(report.total_overruns, 0);
  EXPECT_GT(report.total_preemptions, 0);
  EXPECT_GT(report.total_requeues, 0);
  EXPECT_GT(report.total_dollars.value(), 0.0);
  EXPECT_GT(report.makespan_s.value(), 0.0);
}

TEST(ExecutorStress, FaultStormReportIsWorkerCountInvariant) {
  std::string baseline;
  for (const index_t n_workers : {1, 3, 8}) {
    auto scheduler = make_scheduler(stress_scheduler_config());
    CampaignEngine engine(*scheduler, stress_engine_config(n_workers));
    const std::string csv = engine.run(stress_jobs()).to_csv();
    if (baseline.empty()) {
      baseline = csv;
    } else {
      EXPECT_EQ(csv, baseline) << "report diverged at " << n_workers
                               << " workers";
    }
  }
}

// Attempt-level incident records: every preemption / corrupted-restore /
// guard-stop that simulate_attempt counts must also appear in
// AttemptResult::events, stamped with a nondecreasing attempt-relative
// virtual offset inside the attempt's occupancy window. (The executor
// relies on this to place trace instants at absolute campaign time.)
TEST(ExecutorStress, AttemptEventsAreOrderedAndMatchCounters) {
  SchedulerConfig sched_config = stress_scheduler_config();
  auto scheduler = make_scheduler(sched_config);

  CampaignJobSpec spec;
  spec.id = 1;
  spec.geometry = "cylinder";
  spec.timesteps = 40000;
  spec.allow_spot = true;
  PlacementRequest request;
  request.spec = &spec;
  request.remaining_steps = spec.timesteps;
  const PlacementDecision decision = scheduler->place(request);
  ASSERT_EQ(decision.kind, PlacementDecision::Kind::kPlaced);

  AttemptContext ctx;
  ctx.plan = &scheduler->plan_for(spec.geometry, decision.placement.instance,
                                  decision.placement.n_tasks);
  ctx.profile = &scheduler->profile_for(decision.placement.instance);
  ctx.placement = decision.placement;
  ctx.placement.spot = true;  // force the preemption machinery on
  ctx.guard.predicted_seconds = decision.placement.predicted_seconds;
  // Very tolerant guard: let the attempt run all its chunks so the spot
  // preemption/corrupted-restore machinery gets exercised end to end.
  ctx.guard.tolerance = 100.0;
  ctx.guard.price_per_hour = decision.placement.cost_rate_per_hour;
  ctx.steps = spec.timesteps;
  ctx.seed = 99;
  ctx.spot = sched_config.spot;
  ctx.max_preemptions = 64;
  ctx.faults.extra_preemption_probability = 0.5;
  ctx.faults.checkpoint_corruption_rate = 0.5;

  const AttemptResult res = simulate_attempt(ctx);
  ASSERT_FALSE(res.events.empty()) << "fault storm produced no events";

  index_t preemptions = 0, corruptions = 0, guard_stops = 0, crashes = 0;
  units::Seconds previous{0.0};
  for (const AttemptEvent& event : res.events) {
    EXPECT_GE(event.at_s.value(), previous.value())
        << "event offsets must be nondecreasing";
    EXPECT_GE(event.at_s.value(), 0.0);
    // Checkpointed progress at an event is bounded by the request; it is
    // NOT monotone — a corrupted restore regresses to the older durable
    // checkpoint by design.
    EXPECT_GE(event.steps_done, 0);
    EXPECT_LE(event.steps_done, ctx.steps);
    previous = event.at_s;
    switch (event.kind) {
      case ProtocolEventKind::kPreemption: ++preemptions; break;
      case ProtocolEventKind::kCorruptRestore: ++corruptions; break;
      case ProtocolEventKind::kGuardStop: ++guard_stops; break;
      case ProtocolEventKind::kWorkerCrash: ++crashes; break;
      default:
        ADD_FAILURE() << "not a mid-attempt kind: "
                      << protocol_event_name(event.kind);
    }
  }
  EXPECT_EQ(preemptions, res.preemptions);
  EXPECT_EQ(corruptions, res.checkpoint_corruptions);
  EXPECT_EQ(guard_stops, res.overrun_aborted ? 1 : 0);
  EXPECT_EQ(crashes, res.worker_crashed ? 1 : 0);
  EXPECT_GT(res.preemptions, 0) << "storm must exercise spot preemption";
}

// The telemetry extension of the determinism contract: the virtual-time
// trace (spans + fault instants) of the fault storm is byte-identical for
// any worker count, and its preemption instants agree with the report.
TEST(ExecutorStress, FaultStormVirtualTraceIsWorkerCountInvariant) {
  obs::TraceRecorder& trace = obs::TraceRecorder::global();
  trace.enable(true);

  const auto count_instants = [](const std::string& json,
                                 const std::string& name) {
    const std::string needle = "{\"name\":\"" + name + "\",";
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };

  std::string baseline;
  for (const index_t n_workers : {1, 8}) {
    trace.reset();
    auto scheduler = make_scheduler(stress_scheduler_config());
    CampaignEngine engine(*scheduler, stress_engine_config(n_workers));
    const CampaignReport report = engine.run(stress_jobs());
    const std::string json = trace.to_chrome_json(/*include_wall=*/false);
    EXPECT_EQ(count_instants(json, "preemption"),
              static_cast<std::size_t>(report.total_preemptions));
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline)
          << "virtual trace diverged at " << n_workers << " workers";
    }
  }

  trace.enable(false);
  trace.reset();
}

}  // namespace
}  // namespace hemo::sched
