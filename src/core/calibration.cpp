#include "core/calibration.hpp"

#include <algorithm>
#include <cmath>

#include "decomp/comm_graph.hpp"
#include "lbm/access_counts.hpp"
#include "microbench/pingpong.hpp"
#include "microbench/stream.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace hemo::core {

units::BytesPerSec InstanceCalibration::task_bandwidth(
    units::Cores threads) const {
  HEMO_REQUIRE(threads.value() >= 1, "threads must be >= 1");
  const real_t node_mbs =
      memory.bandwidth(static_cast<real_t>(threads.value()));
  return units::BytesPerSec(node_mbs /
                            static_cast<real_t>(threads.value()) * 1e6);
}

fit::Interp1D pingpong_interp(
    const std::vector<microbench::PingPongSample>& samples) {
  std::vector<real_t> xs, ys;
  xs.reserve(samples.size());
  ys.reserve(samples.size());
  for (const auto& s : samples) {
    // Strictly increasing x required; sizes ladder already is.
    xs.push_back(s.bytes);
    ys.push_back(s.time_us);
  }
  return fit::Interp1D(std::move(xs), std::move(ys));
}

fit::CommModel fit_pingpong(
    const std::vector<microbench::PingPongSample>& samples) {
  std::vector<real_t> xs, ys;
  for (const auto& s : samples) {
    xs.push_back(s.bytes);
    // Fit in seconds so bandwidth comes out in bytes/second; convert back
    // to the paper's MB/s + microseconds convention below.
    ys.push_back(s.time_us * 1e-6);
  }
  const fit::CommModel m = fit::fit_comm_model(xs, ys);
  // m.bandwidth is bytes/s; m.latency seconds. Convert to MB/s and us.
  return fit::CommModel{m.bandwidth / 1e6, m.latency * 1e6};
}

InstanceCalibration calibrate_instance(
    const cluster::InstanceProfile& profile) {
  const obs::Phase span("calibrate_instance", "calibration", [&] {
    return obs::TraceArgs{{"instance", profile.abbrev}};
  });
  InstanceCalibration cal;
  cal.abbrev = profile.abbrev;

  // STREAM sweep: average a few samples per thread count, as the paper's
  // 7-day measurement campaign does, then fit the two-line law.
  const index_t max_threads =
      profile.cores_per_node * profile.vcpus_per_core;
  constexpr index_t kSamples = 4;
  std::vector<real_t> threads, bandwidth;
  for (index_t t = 1; t <= max_threads; ++t) {
    real_t acc = 0.0;
    for (index_t s = 0; s < kSamples; ++s) {
      acc += cluster::MemorySystem(profile)
                 .measured_node_bandwidth(t, s)
                 .value();
    }
    threads.push_back(static_cast<real_t>(t));
    bandwidth.push_back(acc / static_cast<real_t>(kSamples));
  }
  cal.memory = fit::fit_two_line(threads, bandwidth);

  // PingPong sweeps, intra- and internodal.
  const auto sizes = microbench::default_message_sizes();
  const auto inter = microbench::simulated_pingpong(profile, true, sizes);
  const auto intra = microbench::simulated_pingpong(profile, false, sizes);
  cal.inter = fit_pingpong(inter);
  cal.intra = fit_pingpong(intra);
  cal.inter_raw = pingpong_interp(inter);
  cal.intra_raw = pingpong_interp(intra);

  // GPU-equipped instances: device STREAM + PCIe transfer sweep.
  if (profile.gpu.has_value()) {
    const cluster::GpuSystem gpu(profile);
    real_t bw = 0.0;
    for (index_t s = 0; s < kSamples; ++s) {
      bw += gpu.measured_bandwidth(s).value();
    }
    cal.gpu_bandwidth =
        units::MegabytesPerSec(bw / static_cast<real_t>(kSamples));
    std::vector<microbench::PingPongSample> pcie;
    for (real_t size : sizes) {
      pcie.push_back(microbench::PingPongSample{
          size, gpu.measured_transfer(units::Bytes(size), 0).value()});
    }
    cal.gpu_pcie = fit_pingpong(pcie);
  }

  // Fitted-parameter gauges: a metrics snapshot shows what each instance's
  // calibration actually resolved to, next to the drift it later produces.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const obs::Labels who{{"instance", cal.abbrev}};
  metrics.set("calibration_mem_slope_mbps_per_thread", cal.memory.a1, who);
  metrics.set("calibration_mem_breakpoint_threads", cal.memory.a3, who);
  metrics.set("calibration_inter_bandwidth_mbps", cal.inter.bandwidth, who);
  metrics.set("calibration_inter_latency_us", cal.inter.latency, who);
  metrics.set("calibration_intra_bandwidth_mbps", cal.intra.bandwidth, who);
  metrics.set("calibration_intra_latency_us", cal.intra.latency, who);
  return cal;
}

WorkloadCalibration calibrate_workload(harvey::Simulation& sim,
                                       std::span<const index_t> task_counts,
                                       index_t tasks_per_node) {
  HEMO_REQUIRE(task_counts.size() >= 2,
               "need at least two task counts to fit the workload laws");
  const obs::Phase span("calibrate_workload", "calibration", [&] {
    return obs::TraceArgs{{"geometry", sim.geometry().name}};
  });
  WorkloadCalibration cal;
  cal.name = sim.geometry().name;
  cal.kernel = sim.options().solver.kernel;
  cal.total_points = sim.mesh().num_points();
  cal.serial_bytes =
      units::Bytes(lbm::serial_bytes_per_step(sim.mesh(), cal.kernel));
  // Data exchanged per boundary point: ~5 of the 19 distributions cross a
  // face cut in D3Q19.
  cal.point_comm_bytes = units::Bytes(
      5.0 * static_cast<real_t>(lbm::data_size(cal.kernel.precision)));

  std::vector<real_t> ns, zs, nodes, events;
  for (index_t n : task_counts) {
    const auto& part = sim.partition(n);
    zs.push_back(decomp::measured_imbalance(sim.mesh(), part, cal.kernel));
    ns.push_back(static_cast<real_t>(n));
    const auto graph = decomp::build_comm_graph(sim.mesh(), part);
    events.push_back(static_cast<real_t>(graph.max_events()));
    nodes.push_back(static_cast<real_t>(
        (n + tasks_per_node - 1) / tasks_per_node));
  }
  cal.imbalance = fit::fit_imbalance(ns, zs);
  cal.events = fit::fit_event_count(ns, nodes, events);
  return cal;
}

WorkloadCalibration scale_resolution(const WorkloadCalibration& base,
                                     real_t point_factor) {
  HEMO_REQUIRE(point_factor > 0.0, "point_factor must be positive");
  WorkloadCalibration scaled = base;
  scaled.total_points = static_cast<index_t>(
      static_cast<real_t>(base.total_points) * point_factor);
  scaled.serial_bytes = base.serial_bytes * point_factor;
  return scaled;
}

}  // namespace hemo::core
