#include "proxy/proxy_app.hpp"

namespace hemo::proxy {

harvey::Simulation make_simulation(const ProxyParams& params,
                                   const lbm::KernelConfig& kernel) {
  harvey::SimulationOptions opts;
  opts.solver.kernel = kernel;
  // The proxy's cylinder divides naturally into grid blocks.
  opts.strategy = decomp::Strategy::kGrid;
  return harvey::Simulation(
      geometry::make_cylinder({.radius = params.radius,
                               .length = params.length,
                               .peak_velocity = params.peak_velocity}),
      opts);
}

std::vector<lbm::KernelConfig> fig4_variants() {
  using namespace lbm;
  std::vector<KernelConfig> v;
  for (Propagation prop : {Propagation::kAA, Propagation::kAB}) {
    v.push_back(KernelConfig{Layout::kSoA, prop, Unroll::kYes,
                             Precision::kDouble});
    v.push_back(KernelConfig{Layout::kAoS, prop, Unroll::kYes,
                             Precision::kDouble});
  }
  return v;
}

std::vector<lbm::KernelConfig> fig8_variants() {
  using namespace lbm;
  std::vector<KernelConfig> v;
  for (Propagation prop : {Propagation::kAA, Propagation::kAB}) {
    for (Unroll unroll : {Unroll::kYes, Unroll::kNo}) {
      v.push_back(
          KernelConfig{Layout::kSoA, prop, unroll, Precision::kDouble});
    }
  }
  return v;
}

}  // namespace hemo::proxy
