// Model-drift instrumentation: predicted-vs-actual error distributions.
//
// The paper's whole premise (Fig. 1) is an iteratively *refined*
// performance model; its predictions are only trustworthy if the gap to
// measurement is visible per job and per refinement round. Every completed
// attempt reports one DriftSample here; the helper turns it into
// signed-relative-error histograms in the metrics registry keyed by
// (workload, instance, refinement round), so a metrics snapshot shows the
// phase-2 loop converging: round-0 errors carry the hidden-efficiency gap
// (tens of percent), later rounds collapse toward zero.
//
// Rounds are bucketed ("0", "1", "2", "3", "4-7", "8+") to keep the label
// cardinality bounded on long campaigns.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "util/common.hpp"

namespace hemo::obs {

/// One completed attempt's prediction-vs-measurement comparison.
struct DriftSample {
  std::string workload;  ///< refinement key: geometry (+ resolution suffix)
  std::string instance;  ///< instance abbreviation of the placement
  /// Refinement round: how many observations the tracker already held for
  /// this workload key when the attempt was placed.
  index_t round = 0;

  real_t predicted_mflups = 0.0;
  real_t measured_mflups = 0.0;
  /// Per-step seconds as armed in the guard vs as executed (productive
  /// compute over durable steps). <= 0 disables the step-time histogram
  /// (e.g. an attempt killed before its first checkpoint).
  real_t predicted_step_seconds = 0.0;
  real_t actual_step_seconds = 0.0;
};

/// The bounded round label ("0", "1", "2", "3", "4-7", "8+").
[[nodiscard]] std::string drift_round_label(index_t round);

/// Signed relative error edges for the drift histograms (symmetric around
/// zero, resolving the interesting few-percent band).
[[nodiscard]] std::span<const real_t> drift_error_edges() noexcept;

/// Records one sample:
///   model_drift_samples_total{workload,instance}            counter
///   model_drift_mflups_rel_error{workload,instance,round}   histogram
///   model_drift_step_time_rel_error{workload,instance,round} histogram
/// Relative errors are (predicted - measured) / measured: positive means
/// the model overpredicted throughput (MFLUPS histogram) or overpredicted
/// time (step-time histogram).
void record_drift(MetricsRegistry& registry, const DriftSample& sample);

}  // namespace hemo::obs
