#include "sched/executor.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string_view>
#include <tuple>

#include "obs/drift.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace hemo::sched {

WorkerPool::WorkerPool(index_t n_threads) {
  HEMO_REQUIRE(n_threads >= 1, "worker pool needs at least one thread");
  threads_.reserve(static_cast<std::size_t>(n_threads));
  for (index_t i = 0; i < n_threads; ++i) {
    threads_.emplace_back([this, i] {
      obs::set_thread_label("worker" + std::to_string(i));
      worker_loop();
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::future<AttemptResult> WorkerPool::submit(
    std::function<AttemptResult()> task) {
  std::packaged_task<AttemptResult()> packaged(std::move(task));
  std::future<AttemptResult> future = packaged.get_future();
  {
    const MutexLock lock(mutex_);
    HEMO_REQUIRE(!stop_, "submit on a stopped worker pool");
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void WorkerPool::worker_loop() {
  for (;;) {
    std::packaged_task<AttemptResult()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const obs::Phase phase("attempt");
    task();
  }
}

CampaignEngine::CampaignEngine(CampaignScheduler& scheduler,
                               EngineConfig config)
    : scheduler_(&scheduler), config_(config) {
  HEMO_REQUIRE(config_.n_workers >= 1, "engine needs at least one worker");
  HEMO_REQUIRE(config_.chunks_per_attempt >= 1,
               "attempts need at least one chunk");
  HEMO_REQUIRE(config_.max_attempts >= 1, "jobs need at least one attempt");
}

namespace {

/// One submitted attempt awaiting its virtual finish event.
struct InFlight {
  std::size_t job = 0;  ///< index into the records vector
  Placement placement;
  units::Seconds start_s;
  index_t steps_requested = 0;  ///< steps this attempt was placed for
  std::future<AttemptResult> future;
  bool ready = false;
  AttemptResult result;
};

/// Exactly the request fields CampaignScheduler::place() reads (its purity
/// contract, scheduler.hpp). Requests with equal keys get equal decisions
/// while CampaignScheduler::still_holds() accepts the stored one.
using DecisionKey =
    std::tuple<std::string_view, real_t, bool, index_t, real_t, real_t>;

DecisionKey decision_key(const PlacementRequest& request) {
  const CampaignJobSpec& spec = *request.spec;
  return {spec.geometry,
          spec.resolution_factor,
          spec.allow_spot,
          request.remaining_steps,
          request.remaining_deadline_s.value(),
          request.remaining_budget.value()};
}

const char* attempt_event_name(AttemptEvent::Kind kind) {
  switch (kind) {
    case AttemptEvent::Kind::kPreemption: return "preemption";
    case AttemptEvent::Kind::kCorruptRestore: return "corrupt_restore";
    case AttemptEvent::Kind::kGuardStop: return "guard_stop";
    case AttemptEvent::Kind::kWorkerCrash: return "worker_crash";
  }
  return "attempt_event";
}

ProtocolEventKind protocol_kind_of(AttemptEvent::Kind kind) {
  switch (kind) {
    case AttemptEvent::Kind::kPreemption:
      return ProtocolEventKind::kPreemption;
    case AttemptEvent::Kind::kCorruptRestore:
      return ProtocolEventKind::kCorruptRestore;
    case AttemptEvent::Kind::kGuardStop:
      return ProtocolEventKind::kGuardStop;
    case AttemptEvent::Kind::kWorkerCrash:
      return ProtocolEventKind::kWorkerCrash;
  }
  return ProtocolEventKind::kPreemption;
}

}  // namespace

CampaignReport CampaignEngine::run(std::vector<CampaignJobSpec> jobs) {
  HEMO_REQUIRE(!jobs.empty(), "campaign needs at least one job");
  std::sort(jobs.begin(), jobs.end(),
            [](const CampaignJobSpec& a, const CampaignJobSpec& b) {
              return a.id < b.id;
            });
  std::set<index_t> seen;
  for (const CampaignJobSpec& spec : jobs) {
    HEMO_REQUIRE(spec.timesteps >= 1,
                 "job " + std::to_string(spec.id) +
                     " needs at least one timestep");
    HEMO_REQUIRE(spec.resolution_factor > 0.0,
                 "job resolution factor must be positive");
    HEMO_REQUIRE(seen.insert(spec.id).second,
                 "duplicate job id " + std::to_string(spec.id));
  }

  std::vector<JobRecord> records(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) records[i].spec = jobs[i];

  WorkerPool pool(config_.n_workers);
  std::vector<std::size_t> pending(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) pending[i] = i;
  std::vector<InFlight> inflight;
  std::vector<ErrorSample> trajectory;
  units::Seconds clock;
  bool bug_armed = false;  ///< one-shot latch for the seeded protocol bugs

  // All telemetry is emitted from this coordinator thread at deterministic
  // points of the virtual-event loop, so the recorded trace is a pure
  // function of the seeded inputs regardless of n_workers.
  obs::TraceRecorder& trace = obs::TraceRecorder::global();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  obs::set_thread_label("coordinator");
  std::vector<units::Seconds> queued_since(records.size());

  // Protocol history tap (specs/executor_protocol.md): recorded only here,
  // on the coordinator thread, at deterministic virtual-time points — the
  // history is a pure function of the seeded inputs, like the report. The
  // flight recorder mirrors the same canonical line into its ring (with
  // the seq the history will assign), so a crash dump diffs against a
  // recorded history one-to-one.
  const auto tap = [&](ProtocolEventKind kind, const JobRecord& rec,
                       units::Seconds at, std::string detail = {},
                       index_t delta_steps = 0,
                       units::Dollars delta_usd = units::Dollars{}) {
    if (config_.history == nullptr && !recorder.enabled()) return;
    ProtocolEvent ev;
    ev.kind = kind;
    ev.job = rec.spec.id;
    ev.attempt = rec.attempts;
    ev.at_s = at;
    ev.steps = rec.steps_done;
    ev.usd = rec.dollars;
    ev.delta_steps = delta_steps;
    ev.delta_usd = delta_usd;
    ev.detail = std::move(detail);
    if (config_.history != nullptr) {
      ev.seq = static_cast<index_t>(config_.history->events.size());
    }
    if (recorder.enabled()) {
      recorder.note("protocol", protocol_event_line(ev));
    }
    if (config_.history != nullptr) config_.history->record(std::move(ev));
  };
  for (const JobRecord& rec : records) {
    tap(ProtocolEventKind::kSubmitted, rec, units::Seconds{},
        rec.spec.geometry);
  }

  const auto fail = [&](JobRecord& rec, const std::string& why,
                        index_t delta_steps = 0,
                        units::Dollars delta_usd = units::Dollars{}) {
    rec.state = JobState::kFailed;
    rec.failure = why;
    rec.finish_s = clock;
    tap(ProtocolEventKind::kFailed, rec, clock, why, delta_steps, delta_usd);
    trace.virtual_instant("failed", "sched", rec.spec.id, clock,
                          {{"reason", why}});
    metrics.add("campaign_jobs_total", 1.0, {{"outcome", "failed"}});
  };

  // kWait/kInfeasible decisions by request class, kept across passes, each
  // with the last pass that looked it up. A waiting job is then evaluated
  // again only once an input of its decision changed: a pass costs a few
  // place() calls per changed request class, not one per queued job.
  struct Memo {
    PlacementDecision decision;
    index_t pass = 0;
  };
  std::map<DecisionKey, Memo> unplaced;
  index_t pass = 0;

  // The coordinator's three passes (place, await, settle) are obs::Phase
  // blocks: profiler frames and, while tracing, wall events.
  while (!pending.empty() || !inflight.empty()) {
    ++pass;
    // Placement pass, in job-id order (pending stays id-sorted because
    // records are id-sorted and re-insertions keep the order).
    {
      const obs::Phase place_phase("place");
      std::vector<std::size_t> still_pending;
      for (const std::size_t idx : pending) {
        JobRecord& rec = records[idx];
        const CampaignJobSpec& spec = rec.spec;
        if (spec.deadline_s.value() > 0.0 && clock >= spec.deadline_s) {
          fail(rec, "deadline passed while queued");
          continue;
        }
        PlacementRequest request;
        request.spec = &spec;
        request.remaining_steps = spec.timesteps - rec.steps_done;
        request.remaining_deadline_s = spec.deadline_s.value() > 0.0
                                           ? spec.deadline_s - clock
                                           : units::Seconds{};
        request.remaining_budget = spec.budget_dollars.value() > 0.0
                                       ? spec.budget_dollars - rec.dollars
                                       : units::Dollars{};
        if (spec.budget_dollars.value() > 0.0 &&
            request.remaining_budget.value() <= 0.0) {
          fail(rec, "budget exhausted");
          continue;
        }

        // A stored answer is checked at its first lookup of a pass: the
        // settlement before the pass may have released capacity or moved
        // the key's correction. Later lookups in the same pass reuse it
        // unchecked: the tracker is not written within a pass and pools
        // change only through reserve(), which only lowers free capacity,
        // so it cannot turn a kWait or kInfeasible answer into kPlaced.
        const DecisionKey key = decision_key(request);
        auto memo = unplaced.find(key);
        if (memo != unplaced.end() && memo->second.pass != pass) {
          if (scheduler_->still_holds(memo->second.decision)) {
            memo->second.pass = pass;
          } else {
            unplaced.erase(memo);
            memo = unplaced.end();
          }
        }
        PlacementDecision placed;
        if (memo == unplaced.end()) {
          PlacementDecision fresh = scheduler_->place(request);
          if (fresh.kind == PlacementDecision::Kind::kPlaced) {
            placed = std::move(fresh);
          } else {
            memo = unplaced.emplace(key, Memo{std::move(fresh), pass}).first;
          }
        }
        const PlacementDecision& decision =
            memo != unplaced.end() ? memo->second.decision : placed;
        if (decision.kind == PlacementDecision::Kind::kInfeasible) {
          fail(rec, decision.reason);
          continue;
        }
        if (decision.kind == PlacementDecision::Kind::kWait) {
          still_pending.push_back(idx);
          continue;
        }

        scheduler_->reserve(decision.placement);
        ++rec.attempts;
        rec.placements.push_back(decision.placement);
        rec.state = JobState::kRunning;
        if (rec.start_s.value() < 0.0) rec.start_s = clock;

        tap(ProtocolEventKind::kPlaced, rec, clock,
            decision.placement.instance);
        trace.virtual_span("queued", "sched", spec.id, queued_since[idx],
                           clock,
                           {{"attempt", std::to_string(rec.attempts)}});
        trace.virtual_instant(
            "placed", "sched", spec.id, clock,
            {{"instance", decision.placement.instance},
             {"tasks", std::to_string(decision.placement.n_tasks)},
             {"spot", decision.placement.spot ? "1" : "0"}});
        metrics.add("campaign_attempts_total", 1.0,
                    {{"instance", decision.placement.instance},
                     {"spot", decision.placement.spot ? "true" : "false"}});

        AttemptContext ctx;
        ctx.plan = &scheduler_->plan_for(spec.geometry,
                                         decision.placement.instance,
                                         decision.placement.n_tasks);
        ctx.profile = &scheduler_->profile_for(decision.placement.instance);
        ctx.placement = decision.placement;
        ctx.guard.predicted_seconds = decision.placement.predicted_seconds;
        ctx.guard.tolerance = scheduler_->config().guard_tolerance;
        ctx.guard.price_per_hour = decision.placement.cost_rate_per_hour;
        ctx.steps = request.remaining_steps;
        ctx.resolution_factor = spec.resolution_factor;
        ctx.n_chunks = config_.chunks_per_attempt;
        ctx.seed = hash_seed(config_.seed,
                             static_cast<std::uint64_t>(spec.id),
                             static_cast<std::uint64_t>(rec.attempts));
        ctx.spot = scheduler_->config().spot;
        ctx.max_preemptions = config_.max_preemptions;
        ctx.backoff_base_s = config_.backoff_base_s;
        ctx.faults = config_.faults;

        InFlight f;
        f.job = idx;
        f.placement = decision.placement;
        f.start_s = clock;
        f.steps_requested = ctx.steps;
        f.future = pool.submit([ctx] { return simulate_attempt(ctx); });
        inflight.push_back(std::move(f));
      }
      pending = std::move(still_pending);
      // Answers no job asked for this pass are dropped, so the memo holds
      // at most one pass's request classes.
      std::erase_if(unplaced, [pass](const auto& entry) {
        return entry.second.pass != pass;
      });
    }

    if (inflight.empty()) {
      // Every pool is free when nothing is in flight, so neither place()
      // nor still_holds() can have answered kWait; anything still pending
      // is a logic error.
      for (const std::size_t idx : pending) {
        fail(records[idx], "unplaceable with all pools idle");
      }
      break;
    }

    // All in-flight attempts compute concurrently; their virtual finish
    // times are needed to pick the next event, so wait for the stragglers.
    {
      const obs::Phase await_phase("await");
      for (InFlight& f : inflight) {
        if (!f.ready) {
          f.result = f.future.get();
          f.ready = true;
        }
      }
    }
    const obs::Phase settle_phase("settle");

    // Next event: earliest virtual finish, ties broken by job id.
    std::size_t best = 0;
    for (std::size_t i = 1; i < inflight.size(); ++i) {
      const units::Seconds fi =
          inflight[i].start_s + inflight[i].result.sim_seconds;
      const units::Seconds fb =
          inflight[best].start_s + inflight[best].result.sim_seconds;
      if (fi < fb || (fi == fb && records[inflight[i].job].spec.id <
                                      records[inflight[best].job].spec.id)) {
        best = i;
      }
    }
    InFlight event = std::move(inflight[best]);
    inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(best));
    clock = event.start_s + event.result.sim_seconds;

    scheduler_->release(event.placement);
    JobRecord& rec = records[event.job];
    const AttemptResult& res = event.result;

    trace.virtual_span(
        "attempt", "sched", rec.spec.id, event.start_s, clock,
        {{"instance", event.placement.instance},
         {"steps_done", std::to_string(res.steps_done)},
         {"preemptions", std::to_string(res.preemptions)},
         {"mflups", obs::trace_num(res.measured_mflups.value())}});
    for (const AttemptEvent& ev : res.events) {
      if (config_.history != nullptr || recorder.enabled()) {
        // Mid-attempt events carry the job's cumulative checkpointed
        // progress (pre-attempt steps plus the attempt's own) and its
        // pre-settlement spend: cost is charged at settlement, so the
        // cumulative dollars move only on the closing event below.
        ProtocolEvent pe;
        pe.kind = protocol_kind_of(ev.kind);
        pe.job = rec.spec.id;
        pe.attempt = rec.attempts;
        pe.at_s = event.start_s + ev.at_s;
        pe.steps = rec.steps_done + ev.steps_done;
        pe.usd = rec.dollars;
        if (config_.history != nullptr) {
          pe.seq = static_cast<index_t>(config_.history->events.size());
        }
        if (recorder.enabled()) {
          recorder.note("protocol", protocol_event_line(pe));
        }
        if (config_.history != nullptr) {
          config_.history->record(std::move(pe));
        }
      }
      trace.virtual_instant(attempt_event_name(ev.kind), "fault",
                            rec.spec.id, event.start_s + ev.at_s,
                            {{"steps_done", std::to_string(ev.steps_done)}});
    }
    if (res.preemptions > 0) {
      metrics.add("campaign_preemptions_total",
                  static_cast<real_t>(res.preemptions),
                  {{"instance", event.placement.instance}});
    }
    if (res.checkpoint_corruptions > 0) {
      metrics.add("campaign_corrupt_restores_total",
                  static_cast<real_t>(res.checkpoint_corruptions),
                  {{"instance", event.placement.instance}});
    }
    if (res.overrun_aborted) {
      metrics.add("campaign_guard_stops_total", 1.0,
                  {{"instance", event.placement.instance}});
    }
    if (res.worker_crashed) {
      metrics.add("campaign_worker_crashes_total", 1.0,
                  {{"instance", event.placement.instance}});
    }
    metrics.observe("campaign_attempt_occupancy_seconds",
                    res.sim_seconds.value());

    rec.dollars += res.dollars;
    rec.compute_seconds += res.compute_seconds;
    rec.preemptions += res.preemptions;
    rec.checkpoint_corruptions += res.checkpoint_corruptions;
    if (res.worker_crashed) ++rec.crashes;
    rec.steps_done += res.steps_done;
    rec.points = static_cast<real_t>(scheduler_->points_of(rec.spec.geometry)) *
                 rec.spec.resolution_factor;

    // Mid-campaign refinement: feed the measurement back before the next
    // placement pass runs, so later decisions use the refined fit.
    if (res.measured_mflups.value() > 0.0) {
      const std::string wkey = workload_key(rec.spec);
      const index_t round = scheduler_->tracker().count_for(wkey);
      scheduler_->tracker().record(core::Observation{
          wkey, event.placement.instance,
          event.placement.n_tasks, event.placement.raw_mflups,
          res.measured_mflups});

      obs::DriftSample drift;
      drift.workload = wkey;
      drift.instance = event.placement.instance;
      drift.round = round;
      drift.predicted_mflups = event.placement.predicted_mflups.value();
      drift.measured_mflups = res.measured_mflups.value();
      if (event.steps_requested > 0) {
        drift.predicted_step_seconds =
            event.placement.predicted_seconds.value() /
            static_cast<real_t>(event.steps_requested);
      }
      if (res.steps_done > 0) {
        drift.actual_step_seconds = res.compute_seconds.value() /
                                    static_cast<real_t>(res.steps_done);
      }
      obs::record_drift(metrics, drift);
      metrics.set("campaign_correction_factor",
                  scheduler_->tracker().correction_factor());
      metrics.set("campaign_mean_abs_rel_error",
                  scheduler_->tracker().mean_abs_relative_error());
      ErrorSample sample;
      sample.virtual_time_s = clock;
      sample.job_id = rec.spec.id;
      sample.abs_rel_error =
          std::abs(
              (event.placement.predicted_mflups - res.measured_mflups)
                  .value()) /
          res.measured_mflups.value();
      trajectory.push_back(sample);
    }

    // Requeue with refreshed parameters: the tracker already holds this
    // attempt's measurement, so the next placement predicts from the
    // corrected model and resumes at the checkpointed step. The seeded
    // protocol bugs (EngineConfig::seeded_bug, checker self-tests only)
    // land here because kill+requeue is the transition the protocol
    // invariants guard hardest.
    const auto requeue = [&](const char* reason) {
      if (config_.seeded_bug == SeededBug::kDoubleCharge) {
        rec.dollars += res.dollars;  // seeded C1 violation: charged twice
      }
      rec.state = JobState::kPending;
      queued_since[event.job] = clock;
      tap(ProtocolEventKind::kRequeued, rec, clock, reason, res.steps_done,
          res.dollars);
      trace.virtual_instant("requeued", "sched", rec.spec.id, clock,
                            {{"reason", reason}});
      metrics.add("campaign_requeues_total", 1.0, {{"reason", reason}});
      if (config_.seeded_bug == SeededBug::kSkipRestore) {
        rec.steps_done += 1;  // seeded K1a violation: resume past checkpoint
      }
      if (config_.seeded_bug == SeededBug::kLostRequeue && !bug_armed) {
        bug_armed = true;
        return;  // seeded E1 violation: the job is never queued again
      }
      pending.insert(std::upper_bound(pending.begin(), pending.end(),
                                      event.job),
                     event.job);
      if (config_.seeded_bug == SeededBug::kDoubleRequeue && !bug_armed) {
        bug_armed = true;  // seeded S1 violation: two live attempts race
        pending.insert(std::upper_bound(pending.begin(), pending.end(),
                                        event.job),
                       event.job);
      }
    };

    if (rec.steps_done >= rec.spec.timesteps) {
      rec.state = JobState::kCompleted;
      rec.finish_s = clock;
      tap(ProtocolEventKind::kCompleted, rec, clock, {}, res.steps_done,
          res.dollars);
      trace.virtual_instant("completed", "sched", rec.spec.id, clock,
                            {{"attempts", std::to_string(rec.attempts)}});
      metrics.add("campaign_jobs_total", 1.0, {{"outcome", "completed"}});
    } else if (res.overrun_aborted) {
      ++rec.overruns;
      if (rec.attempts >= config_.max_attempts) {
        fail(rec, "attempt limit reached after overrun stop", res.steps_done,
             res.dollars);
      } else {
        requeue("overrun");
      }
    } else if (res.worker_crashed) {
      if (rec.attempts >= config_.max_attempts) {
        fail(rec, "attempt limit reached after worker crash", res.steps_done,
             res.dollars);
      } else {
        requeue("crash");
      }
    } else if (res.retries_exhausted) {
      if (rec.attempts >= config_.max_attempts) {
        fail(rec, "spot retries exhausted", res.steps_done, res.dollars);
      } else {
        // Preempted past the retry bound: requeue on on-demand capacity.
        rec.spec.allow_spot = false;
        requeue("retries");
      }
    } else {
      fail(rec, "attempt made no progress", res.steps_done, res.dollars);
    }
  }

  return build_report(records, std::move(trajectory), clock);
}

}  // namespace hemo::sched
