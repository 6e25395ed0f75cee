// The paper's two performance models (its Section II-D).
//
// Both predict the per-timestep runtime of a decomposed LBM workload as
//   T ≈ max_j(t_mem_j) + max_j(t_comm_j)                          (Eq. 6)
// with throughput MFLUPS = points / (T * 1e6)                     (Eq. 7).
//
//  * The DIRECT model uses the real parallel decomposition: per-task byte
//    counts from Eq. 9 and per-message times interpolated from the raw
//    PingPong tables.
//  * The GENERALIZED model estimates everything a priori from aggregate
//    workload numbers: the z-factor (Eqs. 10-11) for the busiest task's
//    bytes, the surface-area halo estimate (Eqs. 13-14), the event-count
//    law (Eq. 15), and the fitted linear communication law (Eqs. 12, 16).
//
// Neither model sees the virtual cluster's hidden efficiency, kernel
// traits, or noise — the models overpredict, as the paper's Figs. 7-8 show.
#pragma once

#include <vector>

#include "cluster/virtual_cluster.hpp"
#include "core/calibration.hpp"
#include "units/units.hpp"
#include "util/common.hpp"

namespace hemo::core {

/// A model's per-step prediction with its runtime composition.
struct ModelPrediction {
  units::Seconds t_mem;   ///< max over tasks of the memory term
  units::Seconds t_comm;  ///< max over tasks of the communication term
  // Composition of the communication term:
  units::Seconds t_intra;     ///< direct model: intranodal share
  units::Seconds t_inter;     ///< direct model: internodal share
  units::Seconds t_comm_bw;   ///< generalized model: bandwidth share
  units::Seconds t_comm_lat;  ///< generalized model: latency share
  units::Seconds t_xfer;      ///< CPU-GPU transfer term (GPU plans, Eq. 2)

  units::Seconds step_seconds;
  units::Mflups mflups;
};

/// Eq. 7: throughput of `points` fluid points updated once per `step`.
[[nodiscard]] constexpr units::Mflups mflups_from(real_t points,
                                                  units::Seconds step) {
  return units::Mflups(points / (step.value() * 1e6));
}

/// Wall-clock time to run `timesteps` steps at `step` each.
[[nodiscard]] constexpr units::Seconds time_to_solution(
    units::Seconds step, index_t timesteps) {
  return step * static_cast<real_t>(timesteps);
}

/// Cost of holding an allocation billed at `rate` for `runtime`.
[[nodiscard]] constexpr units::Dollars total_cost(units::DollarsPerHour rate,
                                                  units::Seconds runtime) {
  return units::to_hours(runtime) * rate;
}

/// One task's direct-model terms per step.
struct TaskTerms {
  units::Seconds t_mem;    ///< Eq. 9 bytes over the task's bandwidth share
  units::Seconds t_intra;  ///< interpolated intranodal message times
  units::Seconds t_inter;  ///< interpolated internodal message times
  units::Seconds t_xfer;   ///< CPU-GPU transfers (GPU plans, Eq. 2)

  [[nodiscard]] units::Seconds t_comm() const noexcept {
    return t_intra + t_inter + t_xfer;
  }
};

/// Direct model per task: exact counts of `plan`, measured hardware tables
/// of `cal`. Every message is charged to both of its endpoints.
[[nodiscard]] std::vector<TaskTerms> direct_task_terms(
    const cluster::WorkloadPlan& plan, const InstanceCalibration& cal);

/// Direct model: the Eq. 6 composition of `direct_task_terms`.
[[nodiscard]] ModelPrediction predict_direct(
    const cluster::WorkloadPlan& plan, const InstanceCalibration& cal);

/// Generalized model: a-priori estimates for `n_tasks` tasks at
/// `tasks_per_node` per node.
[[nodiscard]] ModelPrediction predict_general(
    const WorkloadCalibration& workload, const InstanceCalibration& cal,
    index_t n_tasks, index_t tasks_per_node);

/// Relative value of throughput between two configurations (Eq. 17):
/// r_{B,A} = MFLUPS_B / MFLUPS_A. > 1 means B outperforms A.
[[nodiscard]] real_t relative_value(const ModelPrediction& b,
                                    const ModelPrediction& a);

}  // namespace hemo::core
