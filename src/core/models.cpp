#include "core/models.hpp"

#include <algorithm>
#include <cmath>

namespace hemo::core {

std::vector<TaskTerms> direct_task_terms(const cluster::WorkloadPlan& plan,
                                         const InstanceCalibration& cal) {
  HEMO_REQUIRE(plan.n_tasks >= 1, "empty plan");
  HEMO_REQUIRE(cal.inter_raw && cal.intra_raw,
               "direct model needs raw PingPong tables");
  HEMO_REQUIRE(!plan.on_gpu || (cal.gpu_bandwidth && cal.gpu_pcie),
               "GPU plan needs a GPU-calibrated instance");
  std::vector<TaskTerms> terms(static_cast<std::size_t>(plan.n_tasks));

  // Memory term per task: Eq. 9 bytes over the shared two-line bandwidth
  // (CPU) or the calibrated device bandwidth (GPU, one task per device).
  // The CPU model assumes each of the node's resident tasks gets an equal
  // share of the node bandwidth at that thread count.
  std::vector<index_t> tasks_on_node(static_cast<std::size_t>(plan.n_nodes),
                                     0);
  for (std::int32_t node : plan.task_node) {
    ++tasks_on_node[static_cast<std::size_t>(node)];
  }
  for (std::size_t t = 0; t < terms.size(); ++t) {
    real_t bw = 0.0;
    if (plan.on_gpu) {
      bw = cal.gpu_bandwidth->value() * 1e6;
    } else {
      const index_t resident =
          tasks_on_node[static_cast<std::size_t>(plan.task_node[t])];
      bw = cal.task_bandwidth(units::Cores(resident)).value();
    }
    terms[t].t_mem = units::Seconds(plan.task_bytes[t].value() / bw);
  }

  // Communication term per task: interpolate each message's time from the
  // raw PingPong data (the paper's Section III-G: "Direct modeling here
  // interpolates the communication time from PingPong measurement raw
  // data"). GPU plans: every message additionally crosses PCIe at both
  // endpoints (gpu_pcie is in MB/s + us, so time() yields microseconds).
  for (const auto& m : plan.messages) {
    const fit::Interp1D& table = m.internode ? *cal.inter_raw
                                             : *cal.intra_raw;
    const units::Seconds t_net(table(m.bytes.value()) * 1e-6);
    const units::Seconds t_pcie(
        plan.on_gpu ? cal.gpu_pcie->time(m.bytes.value()) * 1e-6 : 0.0);
    for (std::int32_t endpoint : {m.from, m.to}) {
      TaskTerms& task = terms[static_cast<std::size_t>(endpoint)];
      (m.internode ? task.t_inter : task.t_intra) += t_net;
      task.t_xfer += t_pcie;
    }
  }
  return terms;
}

ModelPrediction predict_direct(const cluster::WorkloadPlan& plan,
                               const InstanceCalibration& cal) {
  const std::vector<TaskTerms> terms = direct_task_terms(plan, cal);
  ModelPrediction pred;
  std::size_t critical = 0;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    pred.t_mem = std::max(pred.t_mem, terms[t].t_mem);
    if (terms[t].t_comm() > pred.t_comm) {
      pred.t_comm = terms[t].t_comm();
      critical = t;
    }
  }
  pred.t_intra = terms[critical].t_intra;
  pred.t_inter = terms[critical].t_inter;
  pred.t_xfer = terms[critical].t_xfer;
  pred.step_seconds = pred.t_mem + pred.t_comm;
  pred.mflups =
      mflups_from(static_cast<real_t>(plan.total_points), pred.step_seconds);
  return pred;
}

ModelPrediction predict_general(const WorkloadCalibration& workload,
                                const InstanceCalibration& cal,
                                index_t n_tasks, index_t tasks_per_node) {
  HEMO_REQUIRE(n_tasks >= 1 && tasks_per_node >= 1,
               "need positive task counts");
  const real_t n = static_cast<real_t>(n_tasks);
  const real_t n_nodes = std::ceil(n / static_cast<real_t>(tasks_per_node));

  // Load imbalance factor (Eq. 11) and busiest-task bytes (Eq. 10).
  const real_t z = workload.imbalance.z(n);
  const units::Bytes max_bytes(z * workload.serial_bytes.value() / n);

  // Memory term with the linear bandwidth-sharing assumption.
  const index_t threads =
      std::min<index_t>(n_tasks, tasks_per_node);
  const units::BytesPerSec bw = cal.task_bandwidth(units::Cores(threads));
  ModelPrediction pred;
  pred.t_mem = max_bytes / bw;

  // Halo size estimate (Eqs. 13-14): surface area of the busiest task's
  // sub-cube, both sent and received.
  if (n_tasks > 1) {
    const real_t w = std::min(std::log2(n), 6.0);
    const real_t points_per_task =
        z * static_cast<real_t>(workload.total_points) / n;
    const real_t m_max_total = w / 6.0 *
                               std::pow(points_per_task, 2.0 / 3.0) * 2.0 *
                               workload.point_comm_bytes.value();

    // Event count (Eq. 15) and the linear communication time (Eq. 16).
    // Allocations confined to one node exchange halos through shared
    // memory, so the intranodal fit applies; multi-node allocations use
    // the internodal fit for every event — the generalized model's known
    // compromise (it overestimates internodal events and underestimates
    // intranodal ones, paper Section III-G).
    const fit::CommModel& comm = n_nodes > 1.0 ? cal.inter : cal.intra;
    const real_t events = workload.events.events(n, n_nodes);
    const real_t bw_term_s =
        m_max_total / (comm.bandwidth * 1e6);  // MB/s -> B/s
    const real_t lat_term_s = events * comm.latency * 1e-6;
    pred.t_comm_bw = units::Seconds(bw_term_s);
    pred.t_comm_lat = units::Seconds(lat_term_s);
    pred.t_comm = units::Seconds(bw_term_s + lat_term_s);
  }

  pred.step_seconds = pred.t_mem + pred.t_comm;
  pred.mflups = mflups_from(static_cast<real_t>(workload.total_points),
                            pred.step_seconds);
  return pred;
}

real_t relative_value(const ModelPrediction& b, const ModelPrediction& a) {
  HEMO_REQUIRE(a.mflups.value() > 0.0 && b.mflups.value() > 0.0,
               "relative_value needs positive throughputs");
  return b.mflups / a.mflups;
}

}  // namespace hemo::core
