// Campaign tracking and iterative model refinement.
//
// The paper's framework stores every measured performance next to the
// model's estimate, refines the model from the accumulated data, and uses
// the (refined) prediction to impose job limits that protect against
// inadvertent cost overruns (Sections II / IV). CampaignTracker implements
// that loop: a multiplicative correction factor is learned as the
// geometric mean of measured/predicted ratios, applied to future
// predictions, and updated as more observations arrive.
//
// record() keeps running aggregates next to the observation log, so every
// query except refined_mean_abs_relative_error() is O(1) however long the
// campaign: each running sum adds the same terms, in the same (insertion)
// order, as a loop over the log would, so the results are bit-identical to
// the loop forms.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "units/units.hpp"
#include "util/common.hpp"

namespace hemo::core {

/// One stored (prediction, measurement) pair.
struct Observation {
  std::string workload;
  std::string instance;
  index_t n_tasks = 0;
  units::Mflups predicted_mflups;
  units::Mflups measured_mflups;
};

/// Accumulates observations and refines predictions. Observations are
/// grouped by their `workload` field: the refinement key (sched::
/// workload_key, the geometry plus any resolution factor).
class CampaignTracker {
 public:
  void record(Observation obs);

  [[nodiscard]] index_t size() const noexcept {
    return static_cast<index_t>(observations_.size());
  }
  [[nodiscard]] const std::vector<Observation>& observations() const noexcept {
    return observations_;
  }

  /// Geometric mean of measured/predicted throughput ratios; 1.0 with no
  /// data. < 1 means the model overpredicts (the expected regime).
  [[nodiscard]] real_t correction_factor() const;

  /// Correction factor from the observations recorded under workload key
  /// `key` alone; the campaign-wide factor while the key has none.
  [[nodiscard]] real_t correction_factor_for(const std::string& key) const;

  /// Observations recorded under workload key `key`.
  [[nodiscard]] index_t count_for(const std::string& key) const;

  /// Applies the learned correction to a raw model throughput.
  [[nodiscard]] units::Mflups refined_mflups(units::Mflups raw_mflups) const {
    return raw_mflups * correction_factor();
  }

  /// Mean absolute relative error of raw predictions vs measurements.
  [[nodiscard]] real_t mean_abs_relative_error() const;

  /// Same, after applying the correction factor (leave-none-out; reported
  /// to show the refinement converging).
  [[nodiscard]] real_t refined_mean_abs_relative_error() const;

 private:
  /// Running sum of log(measured / predicted) over a group of observations.
  struct LogRatioSum {
    real_t sum = 0.0;
    index_t count = 0;
    [[nodiscard]] real_t factor() const;
  };

  std::vector<Observation> observations_;
  LogRatioSum all_;
  std::unordered_map<std::string, LogRatioSum> by_key_;
  real_t abs_rel_error_sum_ = 0.0;
};

/// Model-driven job limit: the user allows `tolerance` (e.g. 0.10) over the
/// predicted runtime and hard-stops the job beyond it (paper Section IV).
struct JobGuard {
  units::Seconds predicted_seconds;
  real_t tolerance = 0.10;
  units::DollarsPerHour price_per_hour;  ///< whole-allocation cost rate

  [[nodiscard]] units::Seconds max_seconds() const noexcept {
    return predicted_seconds * (1.0 + tolerance);
  }
  [[nodiscard]] units::Dollars max_dollars() const noexcept {
    return units::to_hours(max_seconds()) * price_per_hour;
  }

  /// True if a job that has completed `fraction_done` of its work in
  /// `elapsed_seconds` is on pace to violate the limit and should stop.
  [[nodiscard]] bool should_abort(units::Seconds elapsed_seconds,
                                  real_t fraction_done) const;
};

}  // namespace hemo::core
