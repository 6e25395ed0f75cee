// Reproduces Fig. 11: heatmap of relative value r_{B,A} (Eq. 17) of the
// computing infrastructures for HARVEY's aorta at 2048 cores, as predicted
// by the generalized performance model. The paper's aorta runs at
// patient-scale resolution, so the coarse calibration is evaluated at a
// 256x refined point count (DESIGN.md; see core::scale_resolution).
// Paper values: r(CSP-2,TRC)=1.2323, r(EC,TRC)=1.3733, r(EC,CSP-2)=1.1144.
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header(
      "Fig. 11", "relative value r_{B,A}, aorta at 2048 cores (general"
                 " model)");

  harvey::Simulation sim(geometry::make_named("aorta"), {});
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32, 64};
  const core::WorkloadCalibration coarse =
      core::calibrate_workload(sim, cal_counts, 36);
  const core::WorkloadCalibration wcal =
      core::scale_resolution(coarse, 256.0);

  const std::vector<std::string> systems = {"TRC", "CSP-2", "CSP-2 EC"};
  bench::CalibrationCache cache;
  std::vector<core::ModelPrediction> preds;
  for (const auto& abbrev : systems) {
    const auto& profile = cluster::instance_by_abbrev(abbrev);
    preds.push_back(core::predict_general(wcal, cache.get(abbrev), 2048,
                                          profile.cores_per_node));
  }

  TextTable t;
  t.set_header({"2048 Cores - Aorta", "TRC", "CSP-2", "CSP-2 EC"});
  for (std::size_t b = 0; b < systems.size(); ++b) {
    std::vector<std::string> row = {systems[b]};
    for (std::size_t a = 0; a < systems.size(); ++a) {
      row.push_back(
          TextTable::num(core::relative_value(preds[b], preds[a]), 4));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  std::cout << "\nPaper Fig. 11:\n"
               "| TRC      | 1.0000 | 0.8115 | 0.7282 |\n"
               "| CSP-2    | 1.2323 | 1.0000 | 0.8973 |\n"
               "| CSP-2 EC | 1.3733 | 1.1144 | 1.0000 |\n";
  return 0;
}
