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
  ///     remaining_budget,
  ///   * the pools' in_use counts (changed only by reserve()/release()),
  ///   * the tracker contents (changed only by tracker().record()),
  /// and of nothing else. CampaignEngine::run caches kWait/kInfeasible
  /// decisions within a placement pass keyed on exactly those request
  /// fields, so a change that makes place() read anything more must extend
  /// that cache key (executor.cpp, DecisionKey).
  [[nodiscard]] PlacementDecision place(const PlacementRequest& request) const;

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

  struct Workload {
    std::unique_ptr<harvey::Simulation> sim;
    core::WorkloadCalibration calibration;
    /// (instance abbrev, n_tasks) -> plan built at the instance's
    /// tasks-per-node.
    std::map<std::pair<std::string, index_t>, const cluster::WorkloadPlan*>
        plans;
  };

  [[nodiscard]] const Workload& workload_for(const std::string& name) const;
  void run_pilots(const std::string& name, const Workload& workload);

  SchedulerConfig config_;
  core::Dashboard dashboard_;
  std::map<std::string, Pool> pools_;
  std::map<std::string, Workload> workloads_;
  core::CampaignTracker tracker_;
};

}  // namespace hemo::sched
