// Calibration: turning microbenchmark measurements into model parameters.
//
// Phase 1 of the paper's framework (its Fig. 1): characterize every CSP
// instance type with STREAM and PingPong, and fit
//   * the two-line memory law (Eq. 8, parameters a1 a2 a3),
//   * the linear communication law (Eq. 12, parameters b and l),
// keeping the raw PingPong tables for the direct model's interpolation.
//
// Phase 2 tunes anatomy-specific parameters from decomposition sweeps of
// the target geometry:
//   * the load-imbalance law z(n_tasks) (Eqs. 10-11, parameters c1 c2),
//   * the communication-event law (Eq. 15, parameters k1 k2).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cluster/instance.hpp"
#include "fit/interp.hpp"
#include "fit/linear.hpp"
#include "fit/log_models.hpp"
#include "fit/two_line.hpp"
#include "harvey/simulation.hpp"
#include "microbench/pingpong.hpp"
#include "units/units.hpp"
#include "util/common.hpp"

namespace hemo::core {

/// Everything the models know about one instance type.
struct InstanceCalibration {
  std::string abbrev;
  fit::TwoLineModel memory;  ///< fitted Eq. 8 (MB/s vs threads)
  fit::CommModel inter;      ///< fitted Eq. 12, internodal (us vs bytes)
  fit::CommModel intra;      ///< fitted Eq. 12, intranodal
  /// Raw PingPong tables (bytes -> microseconds) for the direct model.
  std::optional<fit::Interp1D> inter_raw;
  std::optional<fit::Interp1D> intra_raw;

  /// GPU calibration (present only for GPU-equipped instances): device
  /// STREAM bandwidth and the fitted host<->device transfer law.
  std::optional<units::MegabytesPerSec> gpu_bandwidth;
  std::optional<fit::CommModel> gpu_pcie;

  /// Model's memory bandwidth share of one task when `threads` tasks are
  /// active per node (paper: linear sharing).
  [[nodiscard]] units::BytesPerSec task_bandwidth(units::Cores threads) const;
};

/// Raw PingPong table (bytes -> microseconds) for the direct model.
[[nodiscard]] fit::Interp1D pingpong_interp(
    const std::vector<microbench::PingPongSample>& samples);

/// Fits Eq. 12 to a PingPong sweep, in MB/s + microseconds. Throws
/// NumericError when the sweep yields no positive bandwidth.
[[nodiscard]] fit::CommModel fit_pingpong(
    const std::vector<microbench::PingPongSample>& samples);

/// Runs the simulated STREAM thread sweep and PingPong size sweeps against
/// `profile` and fits everything. This is what a user would run once per
/// candidate instance type.
[[nodiscard]] InstanceCalibration calibrate_instance(
    const cluster::InstanceProfile& profile);

/// Everything the models know about one workload (geometry x kernel).
struct WorkloadCalibration {
  std::string name;
  index_t total_points = 0;
  units::Bytes serial_bytes;      ///< Eq. 9 summed over the serial domain
  units::Bytes point_comm_bytes;  ///< n_point_comm_bytes in Eq. 13
  fit::ImbalanceModel imbalance;  ///< Eq. 11 fit
  fit::EventCountModel events;    ///< Eq. 15 fit
  lbm::KernelConfig kernel;
};

/// Sweeps decompositions of `sim` at the given task counts, measures the
/// actual byte imbalance and communication-event maxima, and fits the
/// Eq. 11 / Eq. 15 parameters. `tasks_per_node` fixes the node mapping for
/// the event fit (the paper's allocations are node-based).
[[nodiscard]] WorkloadCalibration calibrate_workload(
    harvey::Simulation& sim, std::span<const index_t> task_counts,
    index_t tasks_per_node);

/// Returns the calibration of the same anatomy at a finer lattice
/// resolution: `point_factor` multiplies the fluid-point count (a spatial
/// refinement of s voxels per voxel gives point_factor = s^3). Per-point
/// byte costs are resolution-independent, and the z / event-count laws
/// depend on the decomposition structure rather than the point count, so
/// only the totals rescale. The paper's 2048-core experiments (its
/// Fig. 11) run patient-scale resolutions far above what fits in this
/// repository's test geometries; this helper lets the models evaluate
/// those regimes from a coarse calibration.
[[nodiscard]] WorkloadCalibration scale_resolution(
    const WorkloadCalibration& base, real_t point_factor);

}  // namespace hemo::core
