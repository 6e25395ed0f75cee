// lbm-proxy-app equivalent (paper Section II-B).
//
// The ORNL proxy runs fluid-only LBM in a hardcoded cylindrical geometry to
// isolate the performance of the common LBM kernels, exposing AA/AB
// propagation, AoS/SoA layouts, and unrolled/looped inner loops.
// make_simulation builds that cylinder as a Simulation running a chosen
// kernel variant; the variant sets are the ones benchmarked in the paper's
// Figs. 4 and 8.
#pragma once

#include <vector>

#include "harvey/simulation.hpp"
#include "util/common.hpp"

namespace hemo::proxy {

/// Geometry of the proxy cylinder (the solver keeps its default tau).
struct ProxyParams {
  index_t radius = 12;
  index_t length = 96;
  real_t peak_velocity = 0.05;
};

/// The proxy cylinder running `kernel`, decomposed into grid blocks.
[[nodiscard]] harvey::Simulation make_simulation(
    const ProxyParams& params, const lbm::KernelConfig& kernel);

/// The four variants of the paper's Fig. 4: {AA, AB} x {SoA unrolled, AoS}.
[[nodiscard]] std::vector<lbm::KernelConfig> fig4_variants();

/// The four SoA variants of the paper's Fig. 8:
/// {AA, AB} x {unrolled, looped}, all SoA.
[[nodiscard]] std::vector<lbm::KernelConfig> fig8_variants();

}  // namespace hemo::proxy
