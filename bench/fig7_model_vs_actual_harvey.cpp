// Reproduces Fig. 7: direct and generalized performance-model predictions
// vs actual HARVEY performance for all geometries on CSP-2 (without EC).
// Expected shape: both models overpredict by a roughly consistent factor;
// cerebral is the best-performing geometry; the generalized predictions
// drift from the direct ones at high rank counts on the cylinder.
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header(
      "Fig. 7",
      "model predictions vs actual, HARVEY geometries on CSP-2 (no EC)");

  bench::CalibrationCache cache;
  const auto& cal = cache.get("CSP-2");
  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};

  for (const auto& geo_name : geometry::names()) {
    harvey::Simulation sim(geometry::make_named(geo_name), {});
    const core::WorkloadCalibration wcal = core::calibrate_workload(
        sim, cal_counts, profile.cores_per_node);

    std::cout << "\n(" << geo_name << ")\n";
    TextTable t;
    t.set_header({"Ranks", "Measured MFLUPS", "Direct model",
                  "General model", "Direct/Measured"});
    for (index_t n = 2; n <= 144; n *= 2) {
      const auto measured = sim.measure(profile, n, 200);
      const auto direct = core::predict_direct(
          sim.plan(n, profile.cores_per_node), cal);
      const auto general = core::predict_general(
          wcal, cal, n, profile.cores_per_node);
      t.add_row({TextTable::num(n),
                 TextTable::num(measured.mflups.value(), 2),
                 TextTable::num(direct.mflups.value(), 2),
                 TextTable::num(general.mflups.value(), 2),
                 TextTable::num(direct.mflups / measured.mflups, 2)});
    }
    t.print(std::cout);
  }
  std::cout << "\nExpected shape: predictions above measurements by a"
               " consistent factor;\ncerebral best-performing; general"
               " drifts from direct at high ranks.\n";
  return 0;
}
