// Reproduces Fig. 1 (as an executable walkthrough): the two-phase framework
// for performance-model-driven optimization of cloud resource usage.
//
//   Phase 1 — CSP Option Dashboard: characterize every instance type with
//             microbenchmarks and fit the hardware laws.
//   Phase 2 — anatomy-specific tuning: calibrate the target geometry's
//             workload laws, predict, measure, refine, and guard.
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header(
      "Fig. 1", "the two-phase framework, executed end to end");

  // ----- Phase 1: characterize the CSP instance types -------------------
  std::cout << "\nPhase 1: CSP Option Dashboard (microbenchmark fits)\n";
  std::vector<const cluster::InstanceProfile*> profiles = {
      &cluster::instance_by_abbrev("TRC"),
      &cluster::instance_by_abbrev("CSP-2"),
      &cluster::instance_by_abbrev("CSP-2 EC")};
  core::Dashboard dashboard(profiles);
  TextTable p1;
  p1.set_header({"Instance", "a1", "a3", "b_inter (MB/s)", "l_inter (us)"});
  for (const auto& option : dashboard.options()) {
    p1.add_row({option.calibration.abbrev,
                TextTable::num(option.calibration.memory.a1, 1),
                TextTable::num(option.calibration.memory.a3, 2),
                TextTable::num(option.calibration.inter.bandwidth, 1),
                TextTable::num(option.calibration.inter.latency, 2)});
  }
  p1.print(std::cout);

  // ----- Phase 2: anatomy-specific tuning and the decision loop ---------
  std::cout << "\nPhase 2: anatomy-specific predictions for the aorta\n";
  harvey::Simulation sim(geometry::make_named("aorta"), {});
  const std::vector<index_t> counts = {2, 4, 8, 16, 32, 64};
  const auto workload = core::calibrate_workload(sim, counts, 36);

  const core::JobSpec job{100000};
  const std::vector<index_t> cores = {36, 144};
  auto rows = dashboard.evaluate(workload, job, cores);
  TextTable p2;
  p2.set_header({"Instance", "Cores", "MFLUPS", "Cost ($)"});
  for (const auto& row : rows) {
    p2.add_row({row.instance, TextTable::num(row.n_tasks),
                TextTable::num(row.prediction.mflups.value(), 1),
                TextTable::num(row.total_dollars.value(), 2)});
  }
  p2.print(std::cout);

  const auto pick =
      core::Dashboard::recommend(rows, core::Objective::kMaxThroughput);
  std::cout << "\nuser decision (max throughput): " << pick->instance
            << " @ " << pick->n_tasks << " cores\n";

  // Measure, record, refine — the feedback arrows of Fig. 1.
  core::CampaignTracker tracker;
  const auto& profile = cluster::instance_by_abbrev(pick->instance);
  const auto meas = sim.measure(profile, pick->n_tasks, 1000);
  tracker.record(core::Observation{"aorta", pick->instance, pick->n_tasks,
                                   pick->prediction.mflups, meas.mflups});
  const auto refined =
      dashboard.evaluate(workload, job, cores, tracker.correction_factor());
  real_t refined_mflups = 0.0;
  for (const auto& row : refined) {
    if (row.instance == pick->instance && row.n_tasks == pick->n_tasks) {
      refined_mflups = row.prediction.mflups.value();
    }
  }
  std::cout << "measured " << TextTable::num(meas.mflups.value(), 1)
            << " MFLUPS -> correction factor "
            << TextTable::num(tracker.correction_factor(), 3)
            << "; refined prediction for the pick: "
            << TextTable::num(refined_mflups, 1) << " MFLUPS\n";
  const auto guard = core::Dashboard::make_guard(*pick, 0.10);
  std::cout << "job guard armed: hard stop at "
            << TextTable::num(guard.max_seconds().value() / 3600.0, 3)
            << " h / $" << TextTable::num(guard.max_dollars().value(), 2)
            << "\n";
  return 0;
}
