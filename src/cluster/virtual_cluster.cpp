#include "cluster/virtual_cluster.hpp"

#include <algorithm>

namespace hemo::cluster {

WorkloadPlan make_workload_plan(const lbm::FluidMesh& mesh,
                                const decomp::Partition& partition,
                                const lbm::KernelConfig& config,
                                index_t tasks_per_node,
                                const std::string& label) {
  HEMO_REQUIRE(tasks_per_node >= 1, "tasks_per_node must be >= 1");
  WorkloadPlan plan;
  plan.label = label;
  plan.n_tasks = partition.n_tasks;
  plan.tasks_per_node = std::min(tasks_per_node, partition.n_tasks);
  plan.n_nodes =
      (partition.n_tasks + plan.tasks_per_node - 1) / plan.tasks_per_node;
  plan.total_points = mesh.num_points();
  plan.kernel = config;
  plan.traits = lbm::kernel_traits(config);

  const std::vector<real_t> raw_bytes =
      decomp::task_bytes_per_step(mesh, partition, config);
  plan.task_bytes.reserve(raw_bytes.size());
  for (const real_t b : raw_bytes) {
    plan.task_bytes.push_back(units::Bytes(b));
  }
  plan.task_points.resize(static_cast<std::size_t>(partition.n_tasks));
  plan.task_node.resize(static_cast<std::size_t>(partition.n_tasks));
  for (index_t t = 0; t < partition.n_tasks; ++t) {
    plan.task_points[static_cast<std::size_t>(t)] = static_cast<index_t>(
        partition.points_of[static_cast<std::size_t>(t)].size());
    plan.task_node[static_cast<std::size_t>(t)] =
        static_cast<std::int32_t>(t / plan.tasks_per_node);
  }

  const decomp::CommGraph graph = decomp::build_comm_graph(mesh, partition);
  plan.messages.reserve(graph.messages.size());
  for (const decomp::Message& m : graph.messages) {
    WorkloadPlan::PlannedMessage pm;
    pm.from = m.from;
    pm.to = m.to;
    pm.bytes = units::Bytes(m.bytes(config));
    pm.internode = plan.task_node[static_cast<std::size_t>(m.from)] !=
                   plan.task_node[static_cast<std::size_t>(m.to)];
    plan.messages.push_back(pm);
  }
  return plan;
}

WorkloadPlan make_gpu_workload_plan(const lbm::FluidMesh& mesh,
                                    const decomp::Partition& partition,
                                    const lbm::KernelConfig& config,
                                    index_t gpus_per_node,
                                    const std::string& label) {
  WorkloadPlan plan =
      make_workload_plan(mesh, partition, config, gpus_per_node, label);
  plan.on_gpu = true;
  return plan;
}

VirtualCluster::VirtualCluster(const InstanceProfile& profile)
    : profile_(&profile),
      memory_(profile),
      interconnect_(profile),
      noise_(profile) {}

std::vector<TaskBreakdown> VirtualCluster::task_breakdowns(
    const WorkloadPlan& plan) const {
  HEMO_REQUIRE(plan.n_tasks >= 1, "empty plan");

  // Tasks resident per node (for the bandwidth share).
  std::vector<index_t> tasks_on_node(static_cast<std::size_t>(plan.n_nodes),
                                     0);
  for (std::int32_t node : plan.task_node) {
    ++tasks_on_node[static_cast<std::size_t>(node)];
  }

  HEMO_REQUIRE(!plan.on_gpu || profile_->gpu.has_value(),
               "GPU plan on an instance without GPUs");

  std::vector<TaskBreakdown> out(static_cast<std::size_t>(plan.n_tasks));
  for (index_t t = 0; t < plan.n_tasks; ++t) {
    TaskBreakdown& b = out[static_cast<std::size_t>(t)];
    if (plan.on_gpu) {
      // One task per device: full effective HBM bandwidth, no host-side
      // per-point overhead (the launch cost folds into transfers).
      const GpuSystem gpu(*profile_);
      b.mem_s = units::Seconds(
          plan.task_bytes[static_cast<std::size_t>(t)].value() /
          (gpu.effective_bandwidth().value() * 1e6) /
          profile_->base_efficiency);
      continue;
    }
    const index_t node =
        static_cast<index_t>(plan.task_node[static_cast<std::size_t>(t)]);
    const index_t resident = tasks_on_node[static_cast<std::size_t>(node)];
    const real_t node_bw_mbs =
        memory_.ideal_node_bandwidth(static_cast<real_t>(resident)).value();
    const real_t task_bw_bytes_per_s =
        node_bw_mbs / static_cast<real_t>(resident) *
        plan.traits.bandwidth_efficiency * 1e6;

    b.mem_s = units::Seconds(
        plan.task_bytes[static_cast<std::size_t>(t)].value() /
        task_bw_bytes_per_s / profile_->base_efficiency);
    b.overhead_s = units::Seconds(
        static_cast<real_t>(plan.task_points[static_cast<std::size_t>(t)]) *
        plan.traits.overhead_cycles_per_point /
        (profile_->clock_ghz * 1e9) / profile_->base_efficiency);
  }

  // Communication: each endpoint of a message spends its transfer time.
  // The hidden efficiency applies here too — a full application never
  // achieves raw PingPong times (halo packing/unpacking, synchronization
  // skew), which keeps the models' overprediction consistent across the
  // memory- and communication-dominated regimes (paper Figs. 7-8).
  for (const auto& m : plan.messages) {
    const real_t t_us =
        interconnect_.message_time(m.bytes, m.internode).value();
    const units::Seconds t_s(t_us * 1e-6 / profile_->base_efficiency);
    for (std::int32_t endpoint : {m.from, m.to}) {
      TaskBreakdown& b = out[static_cast<std::size_t>(endpoint)];
      if (m.internode) {
        b.inter_s += t_s;
      } else {
        b.intra_s += t_s;
      }
    }
  }

  // GPU plans: every halo message is staged through host memory, costing
  // one PCIe transfer at each endpoint per step (Eq. 2's t_CPU-GPU).
  if (plan.on_gpu) {
    const GpuSystem gpu(*profile_);
    for (const auto& m : plan.messages) {
      const units::Seconds t_s(gpu.transfer_time(m.bytes).value() * 1e-6 /
                               profile_->base_efficiency);
      out[static_cast<std::size_t>(m.from)].xfer_s += t_s;
      out[static_cast<std::size_t>(m.to)].xfer_s += t_s;
    }
  }
  return out;
}

CriticalPath VirtualCluster::critical_path(const WorkloadPlan& plan) const {
  const auto breakdowns = task_breakdowns(plan);
  CriticalPath path;
  for (index_t t = 0; t < plan.n_tasks; ++t) {
    const units::Seconds total = breakdowns[static_cast<std::size_t>(t)].total();
    if (total > path.total) {
      path.total = total;
      path.task = t;
      path.breakdown = breakdowns[static_cast<std::size_t>(t)];
    }
  }
  return path;
}

ExecutionResult VirtualCluster::execute(const WorkloadPlan& plan,
                                        index_t timesteps,
                                        const MeasurementContext& when) const {
  return execute(critical_path(plan), plan.total_points, timesteps, when);
}

ExecutionResult VirtualCluster::execute(const CriticalPath& path,
                                        index_t total_points,
                                        index_t timesteps,
                                        const MeasurementContext& when) const {
  HEMO_REQUIRE(timesteps >= 1, "need at least one timestep");
  ExecutionResult r;
  r.critical_task = path.task;
  r.critical = path.breakdown;
  const real_t noise = noise_.factor(when.day, when.hour, when.slot);
  r.step_seconds = path.total * noise;
  r.total_seconds = r.step_seconds * static_cast<real_t>(timesteps);
  r.mflups = units::Mflups(static_cast<real_t>(total_points) *
                           static_cast<real_t>(timesteps) /
                           (r.total_seconds.value() * 1e6));
  return r;
}

}  // namespace hemo::cluster
