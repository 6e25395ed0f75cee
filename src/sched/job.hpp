// Campaign job specifications and lifetime records.
//
// The paper's end state is an *operated* campaign (its Fig. 1 and §IV):
// many simulation jobs submitted against a budget and a deadline, placed by
// the performance model, guarded against overruns, and fed back into the
// iterative refinement loop. These types describe one job through that
// lifecycle: what the user asked for (CampaignJobSpec), where the scheduler
// put it (Placement), what one execution attempt did (AttemptResult), and
// the accumulated history (JobRecord).
#pragma once

#include <string>
#include <vector>

#include "sched/history.hpp"
#include "units/units.hpp"
#include "util/common.hpp"

namespace hemo::sched {

/// One simulation job as submitted by the user.
struct CampaignJobSpec {
  index_t id = 0;
  std::string geometry;  ///< workload name registered with the scheduler

  /// Fluid-point multiplier relative to the registered geometry (a spatial
  /// refinement of s voxels per voxel gives s^3). Predictions use
  /// core::scale_resolution; execution scales the virtual-cluster step
  /// composition accordingly (see guard.hpp).
  real_t resolution_factor = 1.0;

  index_t timesteps = 10000;

  /// 0 = no deadline; otherwise the job must finish within this much
  /// simulated time after campaign start (queue wait included).
  units::Seconds deadline_s;

  /// 0 = no budget; otherwise placements whose guard ceiling exceeds the
  /// remaining budget are rejected.
  units::Dollars budget_dollars;

  /// Run on preemptible (spot) capacity: discounted rate, interruption
  /// risk, checkpoint/restart recovery.
  bool allow_spot = false;
};

/// Refinement key of a job: observations are pooled per (geometry,
/// resolution) because the model's error mix shifts with resolution (the
/// memory term grows faster than the halo term), so a correction learned
/// at base resolution misleads a refined-lattice job.
[[nodiscard]] std::string workload_key(const CampaignJobSpec& spec);

/// Where the scheduler lifecycle currently has a job.
enum class JobState {
  kPending,    ///< waiting for capacity (or not yet placed)
  kRunning,    ///< an attempt is executing
  kCompleted,  ///< all timesteps done
  kFailed,     ///< infeasible, out of attempts, or out of retries
};

/// One attempt's placement decision.
struct Placement {
  std::string instance;  ///< instance abbreviation
  index_t n_tasks = 0;
  index_t n_nodes = 0;
  bool spot = false;

  /// Refined (tracker-corrected) prediction for the steps this attempt
  /// covers; the overrun guard is armed from this.
  units::Seconds predicted_seconds;
  units::Mflups predicted_mflups;
  /// Raw model throughput before the campaign correction factor; this is
  /// what gets stored against the measurement so the tracker's geometric
  /// mean is not double-corrected.
  units::Mflups raw_mflups;
  units::DollarsPerHour cost_rate_per_hour;  ///< whole allocation, tenancy-adjusted
};

/// One noteworthy incident inside an attempt, stamped with the attempt's
/// own virtual clock. Offsets are relative to the attempt start so the
/// simulation stays a pure function of its inputs; the coordinator adds the
/// placement instant to obtain absolute campaign time. `kind` is one of the
/// four mid-attempt protocol kinds (is_mid_attempt).
struct AttemptEvent {
  ProtocolEventKind kind = ProtocolEventKind::kPreemption;
  units::Seconds at_s;      ///< offset from attempt start (virtual)
  index_t steps_done = 0;   ///< checkpointed steps at the event
};

/// What one attempt actually did (all times simulated).
struct AttemptResult {
  index_t steps_done = 0;  ///< steps completed and checkpointed
  /// Virtual wall occupancy of the allocation: compute + preemption
  /// losses + restart overheads (backoff waits excluded — nodes are
  /// released while waiting).
  units::Seconds sim_seconds;
  units::Seconds compute_seconds;  ///< productive compute in sim_seconds
  units::Dollars dollars;
  units::Mflups measured_mflups;  ///< throughput over productive compute
  index_t preemptions = 0;
  /// Injected corrupted-checkpoint reloads survived (FaultInjection only;
  /// always 0 in production runs).
  index_t checkpoint_corruptions = 0;
  bool overrun_aborted = false;    ///< guard hard stop (>10 % over model)
  bool retries_exhausted = false;  ///< preempted beyond the retry bound
  /// Worker died mid-attempt (FaultInjection::worker_crash_probability);
  /// the attempt ends at its last durable checkpoint and the engine
  /// requeues it (or fails the job when attempts are exhausted).
  bool worker_crashed = false;
  /// Faults and guard stops in virtual order (offsets from attempt start).
  std::vector<AttemptEvent> events;
};

/// Accumulated history of one job across attempts.
struct JobRecord {
  CampaignJobSpec spec;
  JobState state = JobState::kPending;
  index_t attempts = 0;
  index_t steps_done = 0;  ///< across attempts (checkpoint/restart resume)
  units::Seconds start_s{-1.0};   ///< virtual time of first placement
  units::Seconds finish_s{-1.0};  ///< virtual time of completion/failure
  units::Dollars dollars;
  units::Seconds compute_seconds;
  real_t points = 0.0;  ///< fluid points at the job's resolution
  index_t preemptions = 0;
  index_t checkpoint_corruptions = 0;  ///< injected-fault recoveries
  index_t overruns = 0;  ///< guard-triggered requeues
  index_t crashes = 0;   ///< worker-crash requeues (injected faults only)
  std::vector<Placement> placements;  ///< one per attempt
  std::string failure;                ///< why the job failed, if it did
};

}  // namespace hemo::sched
