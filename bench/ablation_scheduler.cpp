// Ablation: what does model-driven placement buy over naive placement?
//
// The same 50-job aorta + cerebral campaign is executed three times under
// identical seeds and capacity, changing only the placement policy:
//
//   model     the dashboard recommendation (cheapest option predicted to
//             meet each job's deadline), refined mid-campaign;
//   cheapest  always the lowest $/hour hardware at the smallest feasible
//             allocation — a cost-conscious user without a model;
//   biggest   always the largest feasible allocation on premium hardware —
//             a deadline-anxious user without a model.
//
// Expected (paper §IV): the model spends the least in total dollars at a
// time-to-solution no worse than the naive cost-conscious baseline.
#include <iostream>

#include "bench_common.hpp"
#include "sched/executor.hpp"

namespace {

using namespace hemo;

std::vector<sched::CampaignJobSpec> make_jobs() {
  std::vector<sched::CampaignJobSpec> jobs;
  for (index_t i = 0; i < 50; ++i) {
    sched::CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = (i % 2 == 0) ? "aorta" : "cerebral";
    spec.timesteps = 800000 + 300000 * (i % 5);
    spec.resolution_factor = (i % 5 == 4) ? 8.0 : 1.0;
    spec.allow_spot = (i % 4 == 2);
    // A per-job deadline generous enough for mid-size allocations but out
    // of reach of the very smallest ones — the regime where placement
    // choices actually differ.
    spec.deadline_s = units::Seconds(24.0 * 3600.0);
    jobs.push_back(spec);
  }
  return jobs;
}

sched::CampaignReport run_policy(sched::Policy policy) {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  sched::SchedulerConfig config;
  config.policy = policy;
  config.objective = core::Objective::kDeadline;
  config.core_counts = {16, 36, 72, 144};
  sched::CampaignScheduler scheduler(std::move(profiles), config);
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  scheduler.register_workload("aorta", geometry::make_named("aorta"),
                              cal_counts);
  scheduler.register_workload("cerebral", geometry::make_named("cerebral"),
                              cal_counts);

  sched::EngineConfig engine_config;
  engine_config.n_workers = 4;
  engine_config.seed = 1234;
  sched::CampaignEngine engine(scheduler, engine_config);
  return engine.run(make_jobs());
}

}  // namespace

int main() {
  std::cout << "Scheduler ablation: model-driven vs naive placement\n"
            << "50 jobs (aorta + cerebral, mixed resolution/tenancy), "
               "24 h deadlines\n\n";

  struct Row {
    const char* name;
    sched::Policy policy;
    sched::CampaignReport report;
  };
  std::vector<Row> rows = {
      {"model", sched::Policy::kModelDriven, {}},
      {"cheapest", sched::Policy::kCheapestRate, {}},
      {"biggest", sched::Policy::kBiggest, {}},
  };
  for (Row& row : rows) row.report = run_policy(row.policy);

  TextTable t;
  t.set_header({"Policy", "Completed", "Failed", "Total $", "Makespan (h)",
                "MLUP/$", "Requeues", "Preempt."});
  for (const Row& row : rows) {
    t.add_row({row.name, TextTable::num(row.report.n_completed),
               TextTable::num(row.report.n_failed),
               TextTable::num(row.report.total_dollars.value(), 2),
               TextTable::num(row.report.makespan_s.value() / 3600.0, 2),
               TextTable::num(row.report.mlups_per_dollar.value(), 1),
               TextTable::num(row.report.total_requeues),
               TextTable::num(row.report.total_preemptions)});
  }
  t.print(std::cout);

  const auto& model = rows[0].report;
  const auto& cheapest = rows[1].report;
  const auto& biggest = rows[2].report;
  const bool cheaper = model.total_dollars < cheapest.total_dollars &&
                       model.total_dollars < biggest.total_dollars;
  const bool no_slower = model.makespan_s <= cheapest.makespan_s;
  std::cout << "\nmodel-driven lowest total $: " << (cheaper ? "yes" : "NO")
            << "; time-to-solution <= cheapest baseline: "
            << (no_slower ? "yes" : "NO") << "\n";
  return (cheaper && no_slower) ? 0 : 1;
}
