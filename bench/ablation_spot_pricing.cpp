// Ablation: on-demand vs spot (preemptible) pricing for the aorta campaign.
// Spot capacity discounts the rate but inflates expected wall time through
// preemption/restart losses; the crossover depends on job length and the
// preemption rate.
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header("Ablation",
                      "on-demand vs spot pricing (aorta on CSP-2 EC)");

  std::vector<const cluster::InstanceProfile*> profiles = {
      &cluster::instance_by_abbrev("CSP-2 EC")};
  core::Dashboard dashboard(std::move(profiles));
  harvey::Simulation sim(geometry::make_named("aorta"), {});
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32, 64};
  const auto workload = core::calibrate_workload(sim, cal_counts, 36);

  const std::vector<index_t> cores = {36};
  core::SpotOptions spot;  // defaults: 70% discount, 0.15 preempt/hr

  TextTable t;
  t.set_header({"Timesteps", "On-demand $", "On-demand h", "Spot $",
                "Spot h", "Spot saves"});
  for (index_t steps : {100000, 1000000, 10000000}) {
    const auto rows =
        dashboard.evaluate(workload, core::JobSpec{steps}, cores);
    const auto& od = rows.front();
    const auto sp = core::apply_spot_pricing(od, spot);
    t.add_row({TextTable::num(steps),
               TextTable::num(od.total_dollars.value(), 2),
               TextTable::num(od.time_to_solution_s.value() / 3600.0, 2),
               TextTable::num(sp.total_dollars.value(), 2),
               TextTable::num(sp.time_to_solution_s.value() / 3600.0, 2),
               TextTable::num(
                   (1.0 - sp.total_dollars / od.total_dollars) * 100.0, 1) +
                   "%"});
  }
  t.print(std::cout);

  std::cout << "\nHigh-preemption regime (6/hr, heavy restarts):\n";
  core::SpotOptions brutal;
  brutal.discount = 0.10;
  brutal.preemptions_per_hour = units::PerHour(6.0);
  brutal.restart_overhead_s = units::Seconds(3000.0);
  brutal.checkpoint_interval_s = units::Seconds(3600.0);
  TextTable t2;
  t2.set_header({"Timesteps", "On-demand $", "Spot $", "Verdict"});
  for (index_t steps : {1000000, 10000000}) {
    const auto rows =
        dashboard.evaluate(workload, core::JobSpec{steps}, cores);
    const auto& od = rows.front();
    const auto sp = core::apply_spot_pricing(od, brutal);
    t2.add_row({TextTable::num(steps),
                TextTable::num(od.total_dollars.value(), 2),
                TextTable::num(sp.total_dollars.value(), 2),
                sp.total_dollars < od.total_dollars ? "spot wins"
                                                    : "on-demand wins"});
  }
  t2.print(std::cout);
  std::cout << "\nExpected: spot wins under the default discount; frequent"
               " preemption with a thin\ndiscount erodes it for long"
               " campaigns.\n";
  return 0;
}
