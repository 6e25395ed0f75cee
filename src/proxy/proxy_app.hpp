// lbm-proxy-app equivalent (paper Section II-B).
//
// The ORNL proxy runs fluid-only LBM in a hardcoded cylindrical geometry to
// isolate the performance of the common LBM kernels, exposing AA/AB
// propagation, AoS/SoA layouts, and unrolled/looped inner loops. ProxyApp
// wraps a cylinder Simulation with a chosen kernel variant, offers real
// timed local runs, and exposes the
// standard variant sets benchmarked in the paper's Figs. 4 and 8.
#pragma once

#include <chrono>
#include <vector>

#include "harvey/simulation.hpp"
#include "util/common.hpp"

namespace hemo::proxy {

/// Geometry / numerics of the proxy cylinder.
struct ProxyParams {
  index_t radius = 12;
  index_t length = 96;
  real_t tau = 0.8;
  real_t peak_velocity = 0.05;
};

/// Result of a real, locally timed run.
struct LocalRun {
  index_t steps = 0;
  real_t seconds = 0.0;
  real_t mflups = 0.0;
};

/// The proxy application.
class ProxyApp {
 public:
  ProxyApp(const ProxyParams& params, const lbm::KernelConfig& kernel);

  [[nodiscard]] harvey::Simulation& simulation() noexcept { return sim_; }
  [[nodiscard]] const lbm::KernelConfig& kernel() const noexcept {
    return kernel_;
  }

  /// Runs `steps` timesteps of the real solver on the host and times them.
  [[nodiscard]] LocalRun run_local(index_t steps);

  /// Simulated measurement on a cloud instance (delegates to Simulation).
  [[nodiscard]] cluster::ExecutionResult measure(
      const cluster::InstanceProfile& profile, index_t n_tasks,
      index_t timesteps, const cluster::MeasurementContext& when = {}) {
    return sim_.measure(profile, n_tasks, timesteps, when);
  }

 private:
  lbm::KernelConfig kernel_;
  harvey::Simulation sim_;
};

/// The four variants of the paper's Fig. 4: {AA, AB} x {SoA unrolled, AoS}.
[[nodiscard]] std::vector<lbm::KernelConfig> fig4_variants();

/// The four SoA variants of the paper's Fig. 8:
/// {AA, AB} x {unrolled, looped}, all SoA.
[[nodiscard]] std::vector<lbm::KernelConfig> fig8_variants();

}  // namespace hemo::proxy
