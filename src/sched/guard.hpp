// One execution attempt under the paper's operational machinery.
//
// simulate_attempt runs a placed job on the virtual cluster in
// checkpoint-sized chunks and layers three behaviours around the raw
// execution:
//
//  * the model-driven overrun guard (paper §IV): after every chunk the
//    elapsed/progress pace is checked against the refined prediction with
//    the configured tolerance (10 %); a violating job is hard-stopped at
//    its last checkpoint and reported for requeue;
//  * spot preemption: on preemptible capacity, each chunk may be
//    interrupted (Poisson arrivals at the SpotOptions rate). The work of
//    the in-flight chunk is lost, the restart costs the configured
//    overhead, and the attempt resumes from the last checkpoint after an
//    exponential backoff — bounded by `max_preemptions`;
//  * checkpoint/restart resume: a chunk boundary is a checkpoint (the lbm
//    layer provides the actual state save/load; this engine models its
//    schedule and cost), so both preemption recovery and overrun requeue
//    resume at a step count that was durably reached.
//
// The function is *pure*: its result depends only on the context (spec,
// placement, guard, seed) — never on wall-clock time, thread identity, or
// shared mutable state. That purity is what lets the executor run many
// attempts concurrently and still produce byte-identical campaign reports
// from the same seed.
#pragma once

#include <cstdint>

#include "cluster/virtual_cluster.hpp"
#include "core/campaign.hpp"
#include "core/dashboard.hpp"
#include "sched/job.hpp"
#include "util/common.hpp"

namespace hemo::sched {

/// Deterministic fault-injection knobs, consumed by simulate_attempt and
/// exercised by the differential validation harness (src/check/). The
/// defaults are all-off and draw nothing extra from the attempt RNG
/// stream, so a run with faults disabled is byte-identical to one built
/// before these hooks existed.
struct FaultInjection {
  /// Multiplies every executed chunk's step time: models a degraded or
  /// mis-sized node. Factors beyond 1 + guard tolerance force the overrun
  /// guard to trip on otherwise healthy placements.
  real_t slowdown_factor = 1.0;

  /// Added to the per-chunk spot interruption probability on top of the
  /// SpotOptions Poisson rate: models an interruption storm. Only spot
  /// placements are affected (on-demand capacity is never preempted).
  real_t extra_preemption_probability = 0.0;

  /// Probability that the checkpoint read back on a preemption resume is
  /// corrupted, forcing the previously completed chunk to be redone as
  /// well (one extra restart overhead is paid for the deeper reload).
  real_t checkpoint_corruption_rate = 0.0;

  /// Per-chunk probability that the worker process dies mid-chunk (any
  /// tenancy, unlike spot preemption). The in-flight chunk is lost and
  /// paid for up to the strike point, the attempt ends at its last
  /// durable checkpoint with AttemptResult::worker_crashed set, and the
  /// engine requeues the job. The draw is gated on the rate so disabled
  /// injection leaves the RNG stream untouched.
  real_t worker_crash_probability = 0.0;

  [[nodiscard]] bool any() const noexcept {
    return slowdown_factor != 1.0 || extra_preemption_probability > 0.0 ||
           checkpoint_corruption_rate > 0.0 || worker_crash_probability > 0.0;
  }
};

/// Everything one attempt needs, fixed at submission time.
struct AttemptContext {
  const cluster::WorkloadPlan* plan = nullptr;
  const cluster::InstanceProfile* profile = nullptr;
  Placement placement;
  core::JobGuard guard;  ///< armed from the refined prediction

  index_t steps = 0;  ///< steps this attempt must complete
  /// Fluid-point multiplier of the job (see CampaignJobSpec); scales the
  /// executed step composition alongside the model's scale_resolution.
  real_t resolution_factor = 1.0;

  index_t n_chunks = 10;  ///< checkpoint/progress-report granularity
  std::uint64_t seed = 0; ///< per-(campaign, job, attempt) stream

  core::SpotOptions spot;       ///< tenancy model (used when placement.spot)
  index_t max_preemptions = 8;  ///< retry bound within the attempt
  units::Seconds backoff_base_s{60.0};  ///< first wait; doubles per retry

  FaultInjection faults;       ///< all-off by default
};

/// Rescales step times to `factor` times the plan's fluid points:
/// memory/overhead/transfer terms grow linearly with the point count while
/// halo communication grows with the cut surface (factor^2/3), matching
/// core::scale_resolution's rationale on the prediction side. The run-level
/// noise of the measurement is preserved. The surface term is computed once
/// here, not once per attempt chunk.
class ResolutionScale {
 public:
  explicit ResolutionScale(real_t factor);

  /// Step time of `result` at the scaled resolution.
  [[nodiscard]] units::Seconds step_seconds(
      const cluster::ExecutionResult& result) const;

 private:
  real_t factor_;
  real_t surface_;  ///< factor^(2/3) as cbrt(factor)^2
};

/// Runs one attempt to completion, guard stop, or retry exhaustion.
[[nodiscard]] AttemptResult simulate_attempt(const AttemptContext& ctx);

}  // namespace hemo::sched
