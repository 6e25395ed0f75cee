// Aorta campaign: the paper's full Fig. 1 workflow on a patient-scale
// aortic simulation campaign.
//
//   Phase 1 — build the CSP Option Dashboard: calibrate every candidate
//             instance type from microbenchmarks.
//   Phase 2 — calibrate the anatomy (load-imbalance and event-count laws
//             from decomposition sweeps), evaluate all options, pick one
//             per objective, install an overrun guard, run, record the
//             measurement, and refine the model.
#include <iostream>

#include "core/dashboard.hpp"
#include "harvey/simulation.hpp"
#include "util/table.hpp"

int main() {
  using namespace hemo;
  std::cout << "Aorta cloud campaign\n====================\n\n";

  // Phase 1: the option dashboard.
  std::vector<const cluster::InstanceProfile*> candidates = {
      &cluster::instance_by_abbrev("TRC"),
      &cluster::instance_by_abbrev("CSP-1"),
      &cluster::instance_by_abbrev("CSP-2 Small"),
      &cluster::instance_by_abbrev("CSP-2"),
      &cluster::instance_by_abbrev("CSP-2 EC"),
  };
  std::cout << "calibrating " << candidates.size()
            << " instance types ...\n";
  core::Dashboard dashboard(std::move(candidates));

  // Phase 2: anatomy-specific calibration.
  harvey::SimulationOptions options;
  options.solver.tau = 0.8;
  harvey::Simulation sim(geometry::make_aorta({}), options);
  const std::vector<index_t> sweep = {2, 4, 8, 16, 32, 64};
  core::WorkloadCalibration anatomy =
      core::calibrate_workload(sim, sweep, 36);
  std::cout << "aorta calibration: " << anatomy.total_points
            << " fluid points, z(64) = "
            << TextTable::num(anatomy.imbalance.z(64.0), 3) << "\n\n";

  // A production campaign: 200k timesteps (a few cardiac cycles at high
  // temporal resolution).
  const core::JobSpec job{200000};
  const std::vector<index_t> core_counts = {16, 36, 72, 144};
  auto rows = dashboard.evaluate(anatomy, job, core_counts);

  TextTable t;
  t.set_header({"Instance", "Cores", "Nodes", "MFLUPS", "Time (h)",
                "Cost ($)", "MFLUPS/($/h)"});
  for (const auto& row : rows) {
    t.add_row({row.instance, TextTable::num(row.n_tasks),
               TextTable::num(row.n_nodes),
               TextTable::num(row.prediction.mflups.value(), 1),
               TextTable::num(row.time_to_solution_s.value() / 3600.0, 2),
               TextTable::num(row.total_dollars.value(), 2),
               TextTable::num(row.mflups_per_dollar_hour.value(), 1)});
  }
  t.print(std::cout);

  // Recommendations under the three objectives.
  const auto fastest =
      core::Dashboard::recommend(rows, core::Objective::kMaxThroughput);
  const auto cheapest =
      core::Dashboard::recommend(rows, core::Objective::kMinCost);
  const auto deadline = core::Dashboard::recommend(
      rows, core::Objective::kDeadline, units::Seconds(8.0 * 3600.0));
  std::cout << "\nmax throughput: " << fastest->instance << " @ "
            << fastest->n_tasks << " cores ("
            << TextTable::num(fastest->prediction.mflups.value(), 1)
            << " MFLUPS)\n"
            << "min cost:       " << cheapest->instance << " @ "
            << cheapest->n_tasks << " cores ($"
            << TextTable::num(cheapest->total_dollars.value(), 2)
            << ")\n";
  if (deadline) {
    std::cout << "8 h deadline:   " << deadline->instance << " @ "
              << deadline->n_tasks << " cores ($"
              << TextTable::num(deadline->total_dollars.value(), 2)
              << ")\n";
  } else {
    std::cout << "8 h deadline:   no option qualifies\n";
  }

  // Pilot run: the raw model overpredicts by a consistent factor (paper
  // Figs. 7-8), so a tight guard on the raw prediction would trip on a
  // perfectly healthy job. A short pilot teaches the tracker the
  // correction factor first.
  const core::DashboardRow& chosen = *fastest;
  core::CampaignTracker tracker;
  const auto& profile = cluster::instance_by_abbrev(chosen.instance);
  {
    const auto pilot = sim.measure(profile, chosen.n_tasks, 1000);
    tracker.record(core::Observation{"aorta", chosen.instance,
                                     chosen.n_tasks,
                                     chosen.prediction.mflups,
                                     pilot.mflups});
    std::cout << "\npilot run: predicted "
              << TextTable::num(chosen.prediction.mflups.value(), 1)
              << " MFLUPS, measured "
              << TextTable::num(pilot.mflups.value(), 1)
              << " -> correction factor "
              << TextTable::num(tracker.correction_factor(), 3) << "\n";
  }

  // Guarded execution on the refined prediction + iterative refinement.
  auto refined_rows =
      dashboard.evaluate(anatomy, job, core_counts,
                         tracker.correction_factor());
  const auto refined_chosen = core::Dashboard::recommend(
      refined_rows, core::Objective::kMaxThroughput);
  core::JobGuard guard = core::Dashboard::make_guard(*refined_chosen, 0.10);
  std::cout << "running on " << refined_chosen->instance
            << " with a 10% overrun guard on the refined prediction: stop"
               " after "
            << TextTable::num(guard.max_seconds().value() / 3600.0, 2)
            << " h or $" << TextTable::num(guard.max_dollars().value(), 2)
            << "\n";
  // Simulate the campaign in four guarded chunks.
  const auto& run_profile =
      cluster::instance_by_abbrev(refined_chosen->instance);
  units::Seconds elapsed;
  for (index_t chunk = 0; chunk < 4; ++chunk) {
    const auto meas = sim.measure(run_profile, refined_chosen->n_tasks,
                                  job.timesteps / 4,
                                  {chunk, 6 * chunk, 0});
    elapsed += meas.total_seconds;
    const real_t done = static_cast<real_t>(chunk + 1) / 4.0;
    if (guard.should_abort(elapsed, done)) {
      std::cout << "  chunk " << chunk << ": guard tripped — aborting\n";
      break;
    }
    tracker.record(core::Observation{"aorta", refined_chosen->instance,
                                     refined_chosen->n_tasks,
                                     chosen.prediction.mflups,
                                     meas.mflups});
    std::cout << "  chunk " << chunk << ": measured "
              << TextTable::num(meas.mflups.value(), 1)
              << " MFLUPS, elapsed "
              << TextTable::num(elapsed.value() / 3600.0, 2) << " h (limit "
              << TextTable::num(guard.max_seconds().value() / 3600.0, 2)
              << " h)\n";
  }

  std::cout << "\nlearned correction factor: "
            << TextTable::num(tracker.correction_factor(), 3)
            << " (raw model error "
            << TextTable::num(tracker.mean_abs_relative_error() * 100.0, 1)
            << "% -> refined "
            << TextTable::num(
                   tracker.refined_mean_abs_relative_error() * 100.0, 1)
            << "%)\n"
            << "future dashboard evaluations pass the tracker to "
               "Dashboard::evaluate for refined predictions.\n";
  return 0;
}
