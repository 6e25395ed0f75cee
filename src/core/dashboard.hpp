// The CSP Option Dashboard (paper Fig. 1 and Section IV).
//
// For a calibrated workload, the dashboard evaluates every candidate
// instance type at the requested core counts with the generalized model,
// derives cost metrics (time-to-solution, total dollars, throughput per
// cost rate), builds the relative-value matrix r_{B,A} of Eq. 17, and
// recommends a configuration under a user objective: maximum throughput,
// minimum cost, or cheapest-within-deadline.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/models.hpp"
#include "units/units.hpp"
#include "util/common.hpp"

namespace hemo::core {

/// A simulation job: how much work the user wants to run.
struct JobSpec {
  index_t timesteps = 100000;
};

/// One evaluated (instance, core count) option.
struct DashboardRow {
  std::string instance;
  index_t n_tasks = 0;
  index_t n_nodes = 0;
  ModelPrediction prediction;
  units::Seconds time_to_solution_s;
  units::DollarsPerHour cost_rate_per_hour;  ///< for the whole allocation
  units::Dollars total_dollars;
  units::MflupsPerDollarHour mflups_per_dollar_hour;
};

/// Raw model evaluation of one (instance, core count) option: everything
/// in a DashboardRow that does not depend on the job or the correction.
struct OptionPrediction {
  const cluster::InstanceProfile* profile = nullptr;
  index_t n_tasks = 0;
  index_t n_nodes = 0;
  ModelPrediction prediction;  ///< raw model, no correction applied
};

/// Preemptible (spot) capacity pricing. Spot instances trade a discount
/// against interruptions; with checkpoint/restart (lbm/io.hpp) each
/// preemption costs the work since the last checkpoint plus a restart.
/// The expected-value model here lets the dashboard compare on-demand vs
/// spot per option.
struct SpotOptions {
  real_t discount = 0.70;  ///< spot price = (1 - discount) * list
  units::PerHour preemptions_per_hour{0.15};  ///< mean interruption rate
  units::Seconds checkpoint_interval_s{600.0};
  units::Seconds restart_overhead_s{120.0};  ///< re-provision + reload time
};

/// Returns the row re-priced for spot capacity: the expected wall time
/// grows by the expected preemption losses, and the cost rate shrinks by
/// the discount. Throughput figures are left untouched (they describe the
/// hardware, not the tenancy).
[[nodiscard]] DashboardRow apply_spot_pricing(const DashboardRow& row,
                                              const SpotOptions& options);

/// User objective for the recommendation.
enum class Objective {
  kMaxThroughput,
  kMinCost,
  kDeadline,  ///< cheapest option meeting `deadline`
};

/// One candidate instance: profile + its calibration.
struct InstanceOption {
  const cluster::InstanceProfile* profile = nullptr;
  InstanceCalibration calibration;
};

/// The dashboard.
class Dashboard {
 public:
  /// Calibrates every profile in `profiles` (phase 1 of the framework).
  explicit Dashboard(
      std::vector<const cluster::InstanceProfile*> profiles);

  [[nodiscard]] const std::vector<InstanceOption>& options() const noexcept {
    return options_;
  }

  /// Evaluates the workload at each instance and core count:
  /// price(predict(workload, core_counts), job, correction). `correction`
  /// is the learned campaign correction factor (CampaignTracker::
  /// correction_factor and friends) that refines the raw model predictions
  /// (phase 2 feedback loop); 1.0 evaluates the raw model.
  [[nodiscard]] std::vector<DashboardRow> evaluate(
      const WorkloadCalibration& workload, const JobSpec& job,
      std::span<const index_t> core_counts, real_t correction = 1.0) const;

  /// Raw model predictions of the workload at each instance (in options()
  /// order) and core count. They depend on neither the job nor the
  /// correction, so a caller that evaluates one workload many times
  /// predicts once and prices per job.
  [[nodiscard]] std::vector<OptionPrediction> predict(
      const WorkloadCalibration& workload,
      std::span<const index_t> core_counts) const;

  /// One row per prediction: applies `correction` to the raw prediction,
  /// then derives time-to-solution and the cost metrics for `job`.
  [[nodiscard]] static std::vector<DashboardRow> price(
      std::span<const OptionPrediction> candidates, const JobSpec& job,
      real_t correction = 1.0);

  /// Eq. 17 matrix over rows (r[b][a] = MFLUPS_b / MFLUPS_a).
  [[nodiscard]] static std::vector<std::vector<real_t>> relative_value_matrix(
      std::span<const DashboardRow> rows);

  /// Recommends a row under the objective. `deadline` is required for
  /// Objective::kDeadline. Returns nullopt if no row qualifies.
  [[nodiscard]] static std::optional<DashboardRow> recommend(
      std::span<const DashboardRow> rows, Objective objective,
      units::Seconds deadline = units::Seconds{});

  /// Builds the overrun guard for a chosen row (tolerance per paper: 10 %).
  [[nodiscard]] static JobGuard make_guard(const DashboardRow& row,
                                           real_t tolerance = 0.10);

 private:
  std::vector<InstanceOption> options_;
};

}  // namespace hemo::core
