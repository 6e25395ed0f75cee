// Measured-vs-model validation of the parallel runtime.
//
// The threaded runtime measures per-rank wall-clock t_mem and t_comm every
// step. This layer predicts the same quantities with the paper's direct
// model — the one core::predict_direct the cloud instances use — on a
// one-node plan of the run's partition, with this host characterized as a
// core::InstanceCalibration (STREAM + PingPong). It compares prediction
// and measurement per rank and emits the error distributions through
// obs/drift.hpp so a metrics snapshot shows where the model drifts.
#pragma once

#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/models.hpp"
#include "decomp/partition.hpp"
#include "lbm/kernel_config.hpp"
#include "lbm/mesh.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel_solver.hpp"
#include "util/common.hpp"

namespace hemo::runtime {

/// The host the runtime runs on, as a measured instance calibration of one
/// node:
///   memory              Eq. 8 law {a1 = a2 = 1-thread COPY MB/s, a3 = 1},
///                       so every resident rank gets that whole bandwidth
///   intra_raw/inter_raw the threaded PingPong table (one node: the same)
///   intra/inter         its Eq. 12 fit
struct LocalHostModel : core::InstanceCalibration {
  /// Runs STREAM (8 MiB arrays, one thread) and a threaded PingPong over
  /// the default message ladder on this host.
  [[nodiscard]] static LocalHostModel measure();
};

/// One rank's measured-vs-predicted comparison.
struct RankValidation {
  core::TaskTerms predicted;
  real_t measured_mem_s = 0.0;   ///< per-step average
  real_t measured_comm_s = 0.0;  ///< per-step average (pack + wait + unpack)
  /// Signed relative errors, (predicted - measured) / measured: positive
  /// means the model overpredicted time spent.
  real_t mem_rel_error = 0.0;
  real_t comm_rel_error = 0.0;
  real_t step_rel_error = 0.0;
};

/// Whole-run validation report.
struct ValidationReport {
  std::vector<RankValidation> ranks;
  real_t predicted_step_s = 0.0;  ///< core::predict_direct (Eq. 6)
  real_t measured_step_s = 0.0;   ///< slowest measured rank
  real_t predicted_mflups = 0.0;
  real_t measured_mflups = 0.0;
};

/// Compares the runtime's cumulative per-rank timings against the direct
/// model and records the drift through obs:
///   model_drift_* (obs/drift.hpp)                        whole-run sample
///   runtime_model_mem_rel_error{workload,rank}           histogram
///   runtime_model_comm_rel_error{workload,rank}          histogram
/// Ranks that measured zero time in a phase are reported with zero error
/// (nothing to compare). Requires at least one completed step per rank.
ValidationReport validate_run(const lbm::FluidMesh& mesh,
                              const decomp::Partition& partition,
                              const lbm::KernelConfig& config,
                              const LocalHostModel& host,
                              std::span<const RankTimings> timings,
                              const std::string& workload,
                              obs::MetricsRegistry& registry);

}  // namespace hemo::runtime
