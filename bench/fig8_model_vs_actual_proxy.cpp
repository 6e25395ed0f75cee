// Reproduces Fig. 8: model predictions vs actual lbm-proxy-app SoA kernel
// performance (AA and AB, with and without inner-loop unrolling) on CSP-2.
// Expected shape: consistent overprediction; the AA-over-AB improvement
// appears only for the unrolled kernels.
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header(
      "Fig. 8",
      "model vs actual, proxy SoA kernels (AA/AB x unroll) on CSP-2");

  bench::CalibrationCache cache;
  const auto& cal = cache.get("CSP-2");
  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};

  for (const auto& kernel : proxy::fig8_variants()) {
    auto sim = proxy::make_simulation(proxy::ProxyParams{}, kernel);
    const core::WorkloadCalibration wcal = core::calibrate_workload(
        sim, cal_counts, profile.cores_per_node);

    std::cout << "\nkernel: " << lbm::kernel_name(kernel) << "\n";
    TextTable t;
    t.set_header({"Ranks", "Measured MFLUPS", "Direct model",
                  "General model"});
    for (index_t n = 4; n <= 144; n *= 2) {
      const auto measured = sim.measure(profile, n, 200);
      const auto direct = core::predict_direct(
          sim.plan(n, profile.cores_per_node), cal);
      const auto general = core::predict_general(
          wcal, cal, n, profile.cores_per_node);
      t.add_row({TextTable::num(n),
                 TextTable::num(measured.mflups.value(), 2),
                 TextTable::num(direct.mflups.value(), 2),
                 TextTable::num(general.mflups.value(), 2)});
    }
    t.print(std::cout);
  }
  std::cout << "\nExpected shape: models overpredict everywhere (they do"
               " not see loop overhead);\nAA beats AB only for the unrolled"
               " kernels.\n";
  return 0;
}
