// Model-driven placement with bounded instance pools.
//
// CampaignScheduler is the decision layer of the campaign engine: given a
// job, it evaluates every (instance, core count) option with the dashboard
// (generalized model + campaign correction factor), filters by the job's
// deadline/budget and by each instance pool's *remaining* node capacity,
// and picks a placement under the configured policy. The model-driven
// policy is the paper's; the naive policies (always-cheapest hardware,
// always-biggest allocation) exist as ablation baselines — what a user
// without the model would do (bench/ablation_scheduler.cpp).
//
// The scheduler also owns the shared campaign state: one workload registry
// (geometry + calibration + prebuilt decomposition plans), one
// CampaignTracker fed by completed measurements (the paper's phase-2
// refinement loop), and the per-instance capacity accounting. Plans are
// built eagerly at registration so the concurrent executor only ever
// *reads* them.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dashboard.hpp"
#include "harvey/simulation.hpp"
#include "sched/job.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace hemo::sched {

/// Placement policy: the model-driven mode and two naive baselines.
enum class Policy {
  kModelDriven,   ///< dashboard recommendation under the objective
  kCheapestRate,  ///< lowest $/hour hardware, smallest allocation
  kBiggest,       ///< largest allocation on the premium hardware
};

/// Scheduler configuration.
struct SchedulerConfig {
  Policy policy = Policy::kModelDriven;
  core::Objective objective = core::Objective::kMinCost;
  /// Candidate allocation sizes evaluated per instance type.
  std::vector<index_t> core_counts = {16, 36, 72, 144};
  /// Overrun-guard tolerance (paper §IV: 10 %).
  real_t guard_tolerance = 0.10;
  /// Spot tenancy economics (pricing + interruption model).
  core::SpotOptions spot;
  /// Steps of the per-(workload, instance) pilot measurement used to seed
  /// the refinement tracker before the campaign starts (0 disables; the
  /// cold-start alternative is that early jobs overrun-requeue once, which
  /// the engine also supports).
  index_t pilot_steps = 300;
  std::uint64_t pilot_seed = 0x9e3779b9u;
};

/// Outcome of a placement request.
struct PlacementDecision {
  enum class Kind {
    kPlaced,      ///< placement chosen and capacity available
    kWait,        ///< feasible, but blocked on current pool usage
    kInfeasible,  ///< no option satisfies the job's constraints at all
  };
  Kind kind = Kind::kInfeasible;
  Placement placement;  ///< valid when kind == kPlaced
  std::string reason;   ///< set when kind == kInfeasible

  // What the decision was made under (CampaignScheduler::still_holds):
  /// Scheduler-owned refinement key of the request (workload_key).
  const std::string* workload_key = nullptr;
  /// The key's tracker correction factor the options were priced with.
  real_t correction = 0.0;
  /// Per pool, in the scheduler's pool order: the fewest nodes among the
  /// pool's feasible candidates; index_t max when it has none (always so
  /// for kInfeasible).
  std::vector<index_t> wait_thresholds;
};

/// Remaining work/constraints of the job being placed (differs from the
/// spec after an overrun requeue or a partial spot attempt).
struct PlacementRequest {
  const CampaignJobSpec* spec = nullptr;
  index_t remaining_steps = 0;
  units::Seconds remaining_deadline_s;  ///< 0 = none
  units::Dollars remaining_budget;      ///< 0 = none
};

class CampaignScheduler {
 public:
  CampaignScheduler(std::vector<const cluster::InstanceProfile*> profiles,
                    SchedulerConfig config);

  /// Registers a workload under `name`: calibrates the anatomy laws from
  /// decomposition sweeps at `cal_counts` and prebuilds the workload plan
  /// for every (instance, core count) candidate, then (unless disabled)
  /// runs the pilot measurements that seed the refinement tracker. Must be
  /// called for every geometry a job references, before the engine runs.
  void register_workload(const std::string& name,
                         geometry::Geometry geometry,
                         std::span<const index_t> cal_counts);

  /// Chooses a placement for the request under the policy, or reports that
  /// the job must wait for capacity / can never run.
  ///
  /// Purity contract: apart from telemetry, the decision is a function of
  ///   * the request fields spec->geometry, spec->resolution_factor,
  ///     spec->allow_spot, remaining_steps, remaining_deadline_s and
  ///     remaining_budget (CampaignEngine::run keys its decision memo on
  ///     exactly these, executor.cpp DecisionKey),
  ///   * tracker().correction_factor_for(workload key of the request),
  ///   * the pools' free nodes (changed only by reserve()/release()),
  /// and of nothing else. Because the last two are recorded in a kWait or
  /// kInfeasible decision, still_holds() can tell without re-evaluating
  /// whether place() would answer the same for the same request now. A
  /// change that makes place() read anything more must extend the memo key
  /// or the recorded inputs and still_holds().
  [[nodiscard]] PlacementDecision place(const PlacementRequest& request) const;

  /// True exactly when place() would return `decision` (a kWait or
  /// kInfeasible answer, same reason and thresholds) for the request it
  /// answered: the key's correction factor equals the recorded one and
  /// every pool has fewer free nodes than its recorded threshold, so no
  /// feasible candidate fits yet.
  [[nodiscard]] bool still_holds(const PlacementDecision& decision) const;

  /// Capacity accounting (the engine calls these around each attempt).
  void reserve(const Placement& placement);
  void release(const Placement& placement);

  /// Nodes currently free on `instance`.
  [[nodiscard]] index_t free_nodes(const std::string& instance) const;

  /// The shared refinement state (phase-2 loop).
  [[nodiscard]] core::CampaignTracker& tracker() noexcept { return tracker_; }
  [[nodiscard]] const core::CampaignTracker& tracker() const noexcept {
    return tracker_;
  }

  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }

  /// Prebuilt plan lookup for the executor (throws if not registered).
  [[nodiscard]] const cluster::WorkloadPlan& plan_for(
      const std::string& geometry, const std::string& instance,
      index_t n_tasks) const;

  [[nodiscard]] const cluster::InstanceProfile& profile_for(
      const std::string& instance) const;

  /// Total fluid points of a registered geometry (before resolution
  /// scaling).
  [[nodiscard]] index_t points_of(const std::string& geometry) const;

 private:
  struct Pool {
    const cluster::InstanceProfile* profile = nullptr;
    index_t total_nodes = 0;
    index_t in_use = 0;
  };

  /// A workload's model predictions at one resolution factor: evaluated
  /// once, priced by every place() call at that factor.
  struct Resolution {
    std::string key;  ///< workload_key of the jobs at this factor
    std::vector<core::OptionPrediction> candidates;
    std::vector<std::size_t> pool_of;  ///< pools_ index per candidate
  };

  /// Resolution entries, built lazily by place() (which is const and may
  /// be called from several threads) and never erased, so an entry's
  /// address is stable.
  struct Resolutions {
    Mutex mutex;
    std::map<real_t, std::unique_ptr<const Resolution>> by_factor
        HEMO_GUARDED_BY(mutex);
  };

  struct Workload {
    std::unique_ptr<harvey::Simulation> sim;
    core::WorkloadCalibration calibration;
    /// (instance abbrev, n_tasks) -> plan built at the instance's
    /// tasks-per-node.
    std::map<std::pair<std::string, index_t>, const cluster::WorkloadPlan*>
        plans;
    std::unique_ptr<Resolutions> resolutions =
        std::make_unique<Resolutions>();
  };

  [[nodiscard]] const Workload& workload_for(const std::string& name) const;
  [[nodiscard]] const Resolution& resolution_for(
      const Workload& workload, const CampaignJobSpec& spec) const;
  /// Index into pools_ of the pool for `instance` (throws if unknown).
  [[nodiscard]] std::size_t pool_index(const std::string& instance) const;
  void run_pilots(const std::string& name, const Workload& workload);

  SchedulerConfig config_;
  core::Dashboard dashboard_;
  /// One pool per distinct instance, in dashboard option order.
  std::vector<Pool> pools_;
  std::map<std::string, Workload> workloads_;
  core::CampaignTracker tracker_;
};

}  // namespace hemo::sched
