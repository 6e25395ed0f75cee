// Concurrent campaign execution with deterministic virtual time.
//
// CampaignEngine closes the paper's operational loop (Fig. 1): it drains a
// queue of job specs through placement (CampaignScheduler), concurrent
// execution (a worker thread pool running simulate_attempt), the overrun
// guard / spot machinery (guard.hpp), and mid-campaign refinement (every
// completed attempt's measurement is recorded into the shared
// CampaignTracker before the next placement decision).
//
// Determinism under concurrency is a design contract, not an accident:
//
//  * campaign time is *virtual*. Each attempt reports its simulated
//    duration; the engine advances a virtual clock event by event
//    (earliest finish first, ties by job id) and never reads wall time;
//  * attempts are pure functions of their context (seeded per-job,
//    per-attempt RNG streams via hash_seed(campaign seed, job id,
//    attempt)), so the worker pool may compute them in any order and
//    real concurrency only changes wall time, never results;
//  * all shared state — refinement tracker, capacity pools, records — is
//    touched only by the coordinator, in virtual-time order.
//
// Consequence: the same seed yields a byte-identical CampaignReport for
// any worker count, which tests/test_sched.cpp asserts.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "sched/guard.hpp"
#include "sched/history.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace hemo::sched {

/// A fixed-size pool of worker threads executing attempt simulations.
class WorkerPool {
 public:
  explicit WorkerPool(index_t n_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues one attempt; the future resolves when a worker finishes it.
  [[nodiscard]] std::future<AttemptResult> submit(
      std::function<AttemptResult()> task) HEMO_EXCLUDES(mutex_);

  [[nodiscard]] index_t size() const noexcept {
    return static_cast<index_t>(threads_.size());
  }

 private:
  void worker_loop() HEMO_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  Mutex mutex_;  ///< guards the work queue and the stop latch
  CondVar cv_;   ///< signaled under mutex_ on push and on stop
  std::deque<std::packaged_task<AttemptResult()>> queue_
      HEMO_GUARDED_BY(mutex_);
  bool stop_ HEMO_GUARDED_BY(mutex_) = false;
};

/// Deliberately-wrong executor variants for the nemesis self-test
/// (specs/executor_protocol.md §4): each seeds exactly one protocol
/// violation that the history checker (src/nemesis/checker.hpp) must
/// flag, proving the engine→history→checker path detects real protocol
/// regressions end to end. Never enabled outside tests.
enum class SeededBug {
  kNone,
  /// A settled attempt's cost is applied to the job twice (violates C1:
  /// kill+requeue must conserve the accounting).
  kDoubleCharge,
  /// An overrun/crash requeue is recorded but the job is never re-queued,
  /// so it ends in a non-terminal state (violates E1).
  kLostRequeue,
  /// A requeued job is queued twice, racing two live attempts of the
  /// same job (violates S1: placed while already running).
  kDoubleRequeue,
  /// A requeue resumes one chunk past the durable checkpoint, fabricating
  /// progress that was never computed (violates K1a).
  kSkipRestore,
};

/// Engine configuration.
struct EngineConfig {
  index_t n_workers = 4;
  std::uint64_t seed = 42;
  /// Checkpoint / progress-report granularity of each attempt. An attempt
  /// composes its plan's critical path and its resolution scale once, so
  /// each extra chunk costs only a noise draw (the instance is hashed once
  /// per attempt, not per draw) and the chunk's fault/guard checks.
  index_t chunks_per_attempt = 10;
  /// Placement attempts per job (first run + overrun/preemption requeues).
  index_t max_attempts = 4;
  /// Spot retry bound within one attempt.
  index_t max_preemptions = 8;
  units::Seconds backoff_base_s{60.0};
  /// Deterministic fault injection applied to every attempt (all-off by
  /// default; see sched::FaultInjection and src/check/).
  FaultInjection faults;
  /// Protocol history tap (specs/executor_protocol.md): when set, the
  /// coordinator records every protocol event into it, in deterministic
  /// virtual-time settlement order. Must outlive run(). Null (default)
  /// records nothing and changes no behaviour.
  ProtocolHistory* history = nullptr;
  /// Seeded protocol violation for checker self-tests; kNone in
  /// production and in every non-self-test path.
  SeededBug seeded_bug = SeededBug::kNone;
};

/// The campaign execution engine.
class CampaignEngine {
 public:
  /// The scheduler must outlive the engine; its registered workloads and
  /// tracker are shared campaign state.
  CampaignEngine(CampaignScheduler& scheduler, EngineConfig config);

  /// Runs every job to completion or failure and reports the campaign.
  [[nodiscard]] CampaignReport run(std::vector<CampaignJobSpec> jobs);

 private:
  CampaignScheduler* scheduler_;
  EngineConfig config_;
};

}  // namespace hemo::sched
