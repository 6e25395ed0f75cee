#include "core/campaign.hpp"

#include <cmath>

namespace hemo::core {

// CampaignTracker is deliberately uninstrumented: its gauges live at the
// engine call sites (executor.cpp), where the campaign-wide tracker is fed.

void CampaignTracker::record(Observation obs) {
  HEMO_REQUIRE(obs.predicted_mflups.value() > 0.0 &&
                   obs.measured_mflups.value() > 0.0,
               "observations need positive throughputs");
  const real_t log_ratio = std::log(obs.measured_mflups / obs.predicted_mflups);
  all_.sum += log_ratio;
  ++all_.count;
  LogRatioSum& keyed = by_key_[obs.workload];
  keyed.sum += log_ratio;
  ++keyed.count;
  abs_rel_error_sum_ +=
      std::abs((obs.predicted_mflups - obs.measured_mflups).value()) /
      obs.measured_mflups.value();
  observations_.push_back(std::move(obs));
}

real_t CampaignTracker::LogRatioSum::factor() const {
  if (count == 0) return 1.0;
  return std::exp(sum / static_cast<real_t>(count));
}

real_t CampaignTracker::correction_factor() const { return all_.factor(); }

real_t CampaignTracker::correction_factor_for(const std::string& key) const {
  const auto it = by_key_.find(key);
  return it != by_key_.end() ? it->second.factor() : all_.factor();
}

index_t CampaignTracker::count_for(const std::string& key) const {
  const auto it = by_key_.find(key);
  return it != by_key_.end() ? it->second.count : 0;
}

real_t CampaignTracker::mean_abs_relative_error() const {
  if (observations_.empty()) return 0.0;
  return abs_rel_error_sum_ / static_cast<real_t>(observations_.size());
}

real_t CampaignTracker::refined_mean_abs_relative_error() const {
  if (observations_.empty()) return 0.0;
  const real_t c = correction_factor();
  real_t acc = 0.0;
  for (const Observation& o : observations_) {
    acc += std::abs((o.predicted_mflups * c - o.measured_mflups).value()) /
           o.measured_mflups.value();
  }
  return acc / static_cast<real_t>(observations_.size());
}

bool JobGuard::should_abort(units::Seconds elapsed_seconds,
                            real_t fraction_done) const {
  HEMO_REQUIRE(fraction_done >= 0.0 && fraction_done <= 1.0,
               "fraction_done must be in [0, 1]");
  if (elapsed_seconds >= max_seconds()) return true;
  if (fraction_done <= 0.0) return false;
  const units::Seconds projected = elapsed_seconds / fraction_done;
  return projected > max_seconds();
}

}  // namespace hemo::core
