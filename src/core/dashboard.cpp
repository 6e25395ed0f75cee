#include "core/dashboard.hpp"

#include <algorithm>
#include <cmath>

namespace hemo::core {

Dashboard::Dashboard(std::vector<const cluster::InstanceProfile*> profiles) {
  HEMO_REQUIRE(!profiles.empty(), "dashboard needs at least one instance");
  options_.reserve(profiles.size());
  for (const cluster::InstanceProfile* p : profiles) {
    HEMO_REQUIRE(p != nullptr, "null instance profile");
    options_.push_back(InstanceOption{p, calibrate_instance(*p)});
  }
}

std::vector<DashboardRow> Dashboard::evaluate(
    const WorkloadCalibration& workload, const JobSpec& job,
    std::span<const index_t> core_counts, real_t correction) const {
  return price(predict(workload, core_counts), job, correction);
}

std::vector<OptionPrediction> Dashboard::predict(
    const WorkloadCalibration& workload,
    std::span<const index_t> core_counts) const {
  std::vector<OptionPrediction> candidates;
  candidates.reserve(options_.size() * core_counts.size());
  for (const InstanceOption& opt : options_) {
    const index_t tasks_per_node = opt.profile->cores_per_node;
    for (index_t cores : core_counts) {
      OptionPrediction c;
      c.profile = opt.profile;
      c.n_tasks = cores;
      c.n_nodes = (cores + tasks_per_node - 1) / tasks_per_node;
      c.prediction = predict_general(workload, opt.calibration, cores,
                                     std::min(cores, tasks_per_node));
      candidates.push_back(c);
    }
  }
  return candidates;
}

std::vector<DashboardRow> Dashboard::price(
    std::span<const OptionPrediction> candidates, const JobSpec& job,
    real_t correction) {
  HEMO_REQUIRE(job.timesteps >= 1, "job needs at least one timestep");
  HEMO_REQUIRE(correction > 0.0, "correction factor must be positive");

  std::vector<DashboardRow> rows;
  rows.reserve(candidates.size());
  for (const OptionPrediction& c : candidates) {
    DashboardRow row;
    row.instance = c.profile->abbrev;
    row.n_tasks = c.n_tasks;
    row.n_nodes = c.n_nodes;
    row.prediction = c.prediction;
    row.prediction.mflups *= correction;
    row.prediction.step_seconds /= correction;

    row.time_to_solution_s =
        time_to_solution(row.prediction.step_seconds, job.timesteps);
    row.cost_rate_per_hour =
        static_cast<real_t>(row.n_nodes) * c.profile->price_per_node_hour;
    row.total_dollars =
        total_cost(row.cost_rate_per_hour, row.time_to_solution_s);
    row.mflups_per_dollar_hour =
        row.prediction.mflups / row.cost_rate_per_hour;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::vector<real_t>> Dashboard::relative_value_matrix(
    std::span<const DashboardRow> rows) {
  std::vector<std::vector<real_t>> m(
      rows.size(), std::vector<real_t>(rows.size(), 1.0));
  for (std::size_t b = 0; b < rows.size(); ++b) {
    for (std::size_t a = 0; a < rows.size(); ++a) {
      m[b][a] = relative_value(rows[b].prediction, rows[a].prediction);
    }
  }
  return m;
}

std::optional<DashboardRow> Dashboard::recommend(
    std::span<const DashboardRow> rows, Objective objective,
    units::Seconds deadline) {
  if (rows.empty()) return std::nullopt;
  switch (objective) {
    case Objective::kMaxThroughput: {
      const auto it = std::max_element(
          rows.begin(), rows.end(), [](const auto& a, const auto& b) {
            return a.prediction.mflups < b.prediction.mflups;
          });
      return *it;
    }
    case Objective::kMinCost: {
      const auto it = std::min_element(
          rows.begin(), rows.end(), [](const auto& a, const auto& b) {
            return a.total_dollars < b.total_dollars;
          });
      return *it;
    }
    case Objective::kDeadline: {
      HEMO_REQUIRE(deadline.value() > 0.0,
                   "deadline objective needs a deadline");
      std::optional<DashboardRow> best;
      for (const DashboardRow& row : rows) {
        if (row.time_to_solution_s > deadline) continue;
        if (!best || row.total_dollars < best->total_dollars) best = row;
      }
      return best;
    }
  }
  return std::nullopt;
}

DashboardRow apply_spot_pricing(const DashboardRow& row,
                                const SpotOptions& options) {
  HEMO_REQUIRE(options.discount >= 0.0 && options.discount < 1.0,
               "spot discount must be in [0, 1)");
  HEMO_REQUIRE(options.preemptions_per_hour.value() >= 0.0,
               "negative preemption rate");
  DashboardRow spot = row;
  // Expected loss per preemption: half a checkpoint interval of redone
  // work plus the restart overhead.
  const units::Seconds loss_per_preemption =
      options.checkpoint_interval_s / 2.0 + options.restart_overhead_s;
  // Expected preemptions over the (first-order) wall time.
  const real_t expected_preemptions = options.preemptions_per_hour.value() *
                                      row.time_to_solution_s.value() / 3600.0;
  spot.time_to_solution_s =
      row.time_to_solution_s + expected_preemptions * loss_per_preemption;
  spot.cost_rate_per_hour = row.cost_rate_per_hour * (1.0 - options.discount);
  spot.total_dollars =
      total_cost(spot.cost_rate_per_hour, spot.time_to_solution_s);
  spot.mflups_per_dollar_hour =
      spot.prediction.mflups / spot.cost_rate_per_hour;
  return spot;
}

JobGuard Dashboard::make_guard(const DashboardRow& row, real_t tolerance) {
  HEMO_REQUIRE(tolerance >= 0.0, "tolerance must be non-negative");
  JobGuard guard;
  guard.predicted_seconds = row.time_to_solution_s;
  guard.tolerance = tolerance;
  guard.price_per_hour = row.cost_rate_per_hour;
  return guard;
}

}  // namespace hemo::core
