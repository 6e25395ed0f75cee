// Operating a simulation campaign end to end: the model-driven scheduler
// and concurrent execution engine (src/sched/) close the paper's Fig. 1
// loop. A mixed aorta + cerebral queue is placed by the dashboard under a
// min-cost objective on bounded instance pools, executed concurrently on a
// worker pool, guarded against cost overruns (10 % hard stop + requeue),
// run partly on preemptible capacity with checkpoint/restart recovery, and
// refined mid-campaign from every completed measurement.
#include <iostream>

#include "sched/executor.hpp"
#include "util/table.hpp"

int main() {
  using namespace hemo;
  std::cout << "Model-driven campaign scheduling\n"
            << "================================\n\n";

  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }

  sched::SchedulerConfig config;
  config.objective = core::Objective::kMinCost;
  config.core_counts = {16, 36, 72, 144};
  // An aggressive interruption market, so the checkpoint/restart path is
  // visible in a ten-job showcase.
  config.spot.preemptions_per_hour = units::PerHour(2.0);
  sched::CampaignScheduler scheduler(std::move(profiles), config);

  std::cout << "calibrating instances and anatomies (phase 1 + pilots) ...\n";
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  for (const char* name : {"aorta", "cerebral"}) {
    scheduler.register_workload(name, geometry::make_named(name), cal_counts);
  }

  // A study a lab might actually queue: steady aorta runs at two
  // resolutions, a cerebral sweep, a few spot-tolerant batch jobs, and one
  // deadline-bound run.
  std::vector<sched::CampaignJobSpec> jobs;
  for (index_t i = 0; i < 10; ++i) {
    sched::CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = (i % 2 == 0) ? "aorta" : "cerebral";
    spec.timesteps = 1000000 + 400000 * (i % 3);
    spec.resolution_factor = (i % 4 == 3) ? 8.0 : 1.0;
    spec.allow_spot = (i % 3 == 1);
    jobs.push_back(spec);
  }
  jobs[6].deadline_s = units::Seconds(12.0 * 3600.0);

  sched::EngineConfig engine_config;
  engine_config.n_workers = 4;
  engine_config.seed = 42;
  sched::CampaignEngine engine(scheduler, engine_config);

  std::cout << "running " << jobs.size()
            << " jobs on 4 workers (virtual campaign time) ...\n\n";
  const auto report = engine.run(std::move(jobs));
  report.print(std::cout);

  std::cout << "\nrefinement: correction factor "
            << TextTable::num(scheduler.tracker().correction_factor(), 4)
            << " learned from " << scheduler.tracker().size()
            << " observations\n";
  return 0;
}
