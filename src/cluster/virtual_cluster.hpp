// The virtual cluster: executes a decomposed LBM workload against an
// instance profile and reports the "measured" performance.
//
// This is the reproduction's stand-in for running HARVEY on real cloud
// hardware (DESIGN.md §2). Per task j and timestep:
//
//   t_j = (bytes_j / BW_task + points_j * overhead / clock) / efficiency
//         + sum over j's messages of (latency(m) + m / b)
//
// where BW_task shares the node's two-line bandwidth among resident tasks,
// the kernel traits scale achievable bandwidth and add per-point overhead,
// and `efficiency` is the hidden application-level factor. The step time is
// the maximum over tasks, scaled by run-level noise. The performance models
// predict the same workload from microbenchmark fits alone, so the
// model-vs-measured gap has the paper's structure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/hardware.hpp"
#include "cluster/instance.hpp"
#include "decomp/comm_graph.hpp"
#include "decomp/partition.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/mesh.hpp"
#include "units/units.hpp"
#include "util/common.hpp"

namespace hemo::cluster {

/// A fully laid-out parallel workload, ready to execute or to predict.
struct WorkloadPlan {
  std::string label;
  index_t n_tasks = 0;
  index_t tasks_per_node = 0;
  index_t n_nodes = 0;
  index_t total_points = 0;

  std::vector<units::Bytes> task_bytes;  ///< Eq. 9 counts per task
  std::vector<index_t> task_points;      ///< fluid points per task
  std::vector<std::int32_t> task_node;   ///< node of each task

  struct PlannedMessage {
    std::int32_t from = 0;
    std::int32_t to = 0;
    units::Bytes bytes;
    bool internode = false;
  };
  std::vector<PlannedMessage> messages;  ///< per-timestep halo messages

  lbm::KernelConfig kernel;
  lbm::KernelTraits traits;

  /// Execute on the node's GPUs (one task per device). Every halo message
  /// then additionally crosses PCIe at both endpoints (the t_CPU-GPU term
  /// of the paper's Eq. 2).
  bool on_gpu = false;
};

/// Builds a plan: partitions each task contiguously onto nodes
/// (node = task / tasks_per_node) and derives byte/message counts from the
/// mesh, partition, and kernel config. `tasks_per_node` defaults to the
/// instance's physical cores per node (capped by n_tasks).
[[nodiscard]] WorkloadPlan make_workload_plan(
    const lbm::FluidMesh& mesh, const decomp::Partition& partition,
    const lbm::KernelConfig& config, index_t tasks_per_node,
    const std::string& label = {});

/// GPU variant: one task per device, `gpus_per_node` devices per node.
[[nodiscard]] WorkloadPlan make_gpu_workload_plan(
    const lbm::FluidMesh& mesh, const decomp::Partition& partition,
    const lbm::KernelConfig& config, index_t gpus_per_node,
    const std::string& label = {});

/// When a run was taken (keys the deterministic noise stream).
struct MeasurementContext {
  index_t day = 0;
  index_t hour = 12;
  index_t slot = 0;
};

/// Noise-free time composition of one task's step.
struct TaskBreakdown {
  units::Seconds mem_s;       ///< memory-traffic term (incl. efficiency)
  units::Seconds overhead_s;  ///< per-point instruction overhead
  units::Seconds intra_s;     ///< intranodal communication
  units::Seconds inter_s;     ///< internodal communication
  units::Seconds xfer_s;      ///< CPU-GPU transfers (GPU plans only)

  [[nodiscard]] units::Seconds total() const noexcept {
    return mem_s + overhead_s + intra_s + inter_s + xfer_s;
  }
};

/// The noise-free, run-invariant part of executing a plan: its slowest
/// task and that task's step composition. Depends only on the plan and the
/// instance profile, so one value serves every run of the plan.
struct CriticalPath {
  index_t task = 0;          ///< lowest-index slowest task
  TaskBreakdown breakdown;   ///< its noise-free composition
  units::Seconds total;      ///< breakdown.total(): the noise-free step
};

/// Result of executing a plan.
struct ExecutionResult {
  units::Seconds step_seconds;   ///< measured (noisy) time per timestep
  units::Seconds total_seconds;  ///< step_seconds * timesteps
  units::Mflups mflups;          ///< Eq. 7
  index_t critical_task = 0;     ///< slowest task
  TaskBreakdown critical;        ///< its noise-free composition
};

/// Executes plans against one instance profile.
class VirtualCluster {
 public:
  explicit VirtualCluster(const InstanceProfile& profile);

  /// Simulates `timesteps` steps of the plan; `when` keys the noise.
  /// Equal to execute(critical_path(plan), plan.total_points, ...).
  [[nodiscard]] ExecutionResult execute(const WorkloadPlan& plan,
                                        index_t timesteps,
                                        const MeasurementContext& when) const;

  /// Scales a precomputed critical path by the run-level noise at `when`:
  /// step = path.total * noise. `total_points` is the plan's fluid point
  /// count (the MFLUPS numerator).
  [[nodiscard]] ExecutionResult execute(const CriticalPath& path,
                                        index_t total_points,
                                        index_t timesteps,
                                        const MeasurementContext& when) const;

  /// The plan's slowest task: the first argmax of task_breakdowns' totals.
  [[nodiscard]] CriticalPath critical_path(const WorkloadPlan& plan) const;

  /// Noise-free per-task breakdowns (diagnostics and tests).
  [[nodiscard]] std::vector<TaskBreakdown> task_breakdowns(
      const WorkloadPlan& plan) const;

  [[nodiscard]] const InstanceProfile& profile() const noexcept {
    return *profile_;
  }

 private:
  const InstanceProfile* profile_;
  MemorySystem memory_;
  Interconnect interconnect_;
  NoiseModel noise_;
};

}  // namespace hemo::cluster
