// Cerebral scaling study: where does strong scaling stop paying?
//
// Sweeps rank counts for a cerebral-vasculature simulation on two CSP-2
// variants, decomposes the predicted runtime into memory and communication
// terms, and reports the knee — the largest rank count at which adding
// cores still improves time-to-solution by a user-chosen margin. This is
// the analysis behind the paper's Figs. 3, 9, and 10.
#include <iostream>

#include "core/calibration.hpp"
#include "core/models.hpp"
#include "harvey/simulation.hpp"
#include "util/table.hpp"

int main() {
  using namespace hemo;
  std::cout << "Cerebral vasculature scaling study\n"
            << "==================================\n\n";

  harvey::Simulation sim(geometry::make_named("cerebral"), {});
  std::cout << "cerebral tree: " << sim.mesh().num_points()
            << " fluid points, "
            << sim.mesh().type_counts().wall << " wall points\n\n";

  for (const char* abbrev : {"CSP-2", "CSP-2 EC"}) {
    const auto& profile = cluster::instance_by_abbrev(abbrev);
    const core::InstanceCalibration cal = core::calibrate_instance(profile);

    std::cout << abbrev << ":\n";
    TextTable t;
    t.set_header({"Ranks", "Nodes", "Measured MFLUPS", "Model mem (us)",
                  "Model comm (us)", "Comm share"});
    real_t best_mflups = 0.0;
    index_t knee = 1;
    for (index_t n = 2; n <= profile.total_cores; n *= 2) {
      const auto pred = core::predict_direct(
          sim.plan(n, profile.cores_per_node), cal);
      const auto meas = sim.measure(profile, n, 200);
      if (meas.mflups.value() > best_mflups * 1.10) {
        best_mflups = meas.mflups.value();
        knee = n;
      }
      t.add_row({TextTable::num(n),
                 TextTable::num((n + profile.cores_per_node - 1) /
                                profile.cores_per_node),
                 TextTable::num(meas.mflups.value(), 2),
                 TextTable::num(pred.t_mem.value() * 1e6, 1),
                 TextTable::num(pred.t_comm.value() * 1e6, 1),
                 TextTable::num(pred.t_comm / pred.step_seconds, 2)});
    }
    t.print(std::cout);
    std::cout << "scaling knee (last 10%+ gain): " << knee << " ranks\n\n";
  }

  std::cout << "Reading: past one node the communication share jumps and"
               " the EC interconnect\nbuys back some of the loss — the"
               " dashboard quantifies whether it is worth its price.\n";
  return 0;
}
