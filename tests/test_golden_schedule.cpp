// Golden-file regression tests for campaign output.
//
// The 6-job test replicates `hemocloud_cli schedule cylinder 6 20000 42
// --csv` natively and compares the report byte-for-byte against the
// checked-in golden file. The two contended campaigns compare both the CSV
// report and the canonical ProtocolHistory: a 300-job cylinder burst that
// waits for pool capacity on nearly every placement pass, and a 120-job
// three-geometry campaign with refined resolutions, deadlines, budgets,
// spot tenancy and injected faults (infeasible jobs, requeues, spot ->
// on-demand demotion and keyed refinement). The 6-job campaign never waits
// for capacity, so only the contended goldens pin placement decisions made
// under a full pool.
//
// The campaign engine's determinism contract (same seed => byte-identical
// report and history for any worker count) is what makes an exact-match
// golden viable: any drift here means either an intentional
// model/scheduler change (rerun with HEMO_UPDATE_GOLDEN=1 and review the
// diff) or a broken determinism guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "geometry/generators.hpp"
#include "sched/executor.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"

#ifndef HEMO_GOLDEN_DIR
#error "HEMO_GOLDEN_DIR must point at tests/golden"
#endif

namespace hemo::sched {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(HEMO_GOLDEN_DIR) + "/" + name;
}

/// Compares `actual` with the golden file `name` byte for byte, or
/// rewrites the file when HEMO_UPDATE_GOLDEN is set (returns true then, so
/// the caller can skip).
bool check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("HEMO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with HEMO_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << name << " drifted from the golden file; if the change is "
      << "intentional rerun with HEMO_UPDATE_GOLDEN=1 and review the diff";
  return false;
}

/// Mirrors cmd_schedule in examples/hemocloud_cli.cpp: same catalog filter,
/// objective, core counts and calibration ladder.
CampaignScheduler make_scheduler() {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  SchedulerConfig config;
  config.objective = core::Objective::kMinCost;
  config.core_counts = {16, 36, 72, 144};
  return CampaignScheduler(std::move(profiles), config);
}

const std::vector<index_t> kCalCounts = {2, 4, 8, 16, 32};

/// `n` cylinder jobs of the CLI's shape: 20000 steps, every third on spot.
std::vector<CampaignJobSpec> cylinder_jobs(index_t n) {
  std::vector<CampaignJobSpec> jobs;
  for (index_t i = 0; i < n; ++i) {
    CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = "cylinder";
    spec.timesteps = 20000;
    spec.allow_spot = (i % 3 == 1);
    jobs.push_back(spec);
  }
  return jobs;
}

struct GoldenRun {
  std::string csv;
  std::string history;
  CampaignReport report;
  ProtocolHistory events;
};

GoldenRun run_campaign(CampaignScheduler& scheduler,
                       std::vector<CampaignJobSpec> jobs,
                       EngineConfig config) {
  GoldenRun run;
  config.history = &run.events;
  CampaignEngine engine(scheduler, config);
  run.report = engine.run(std::move(jobs));
  run.csv = run.report.to_csv();
  run.history = run.events.canonical();
  return run;
}

TEST(GoldenSchedule, CsvReportMatchesGoldenFile) {
  CampaignScheduler scheduler = make_scheduler();
  scheduler.register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      kCalCounts);
  EngineConfig config;
  config.seed = 42;
  GoldenRun run = run_campaign(scheduler, cylinder_jobs(6), config);
  if (check_golden("schedule_cylinder_6x20000_seed42.csv", run.csv)) {
    GTEST_SKIP() << "golden file regenerated";
  }
}

// 300 single-class jobs on 3 workers: the pools fill after the first few
// placements, so nearly every pass answers "wait" for the queued jobs.
TEST(GoldenSchedule, ContendedCylinderBurstMatchesGoldenFiles) {
  CampaignScheduler scheduler = make_scheduler();
  scheduler.register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      kCalCounts);
  EngineConfig config;
  config.n_workers = 3;
  config.seed = 42;
  const GoldenRun run = run_campaign(scheduler, cylinder_jobs(300), config);

  // The campaign must actually contend: most jobs wait for capacity.
  const auto waited = std::count_if(
      run.events.events.begin(), run.events.events.end(),
      [](const ProtocolEvent& e) {
        return e.kind == ProtocolEventKind::kPlaced && e.at_s.value() > 0.0;
      });
  EXPECT_GT(waited, 250);

  const bool csv = check_golden("burst_cylinder_300x20000_seed42.csv", run.csv);
  const bool history =
      check_golden("burst_cylinder_300x20000_seed42.history", run.history);
  if (csv || history) GTEST_SKIP() << "golden files regenerated";
}

// The campaign-mixed job shape of bench/e2e at 120 jobs: three geometries,
// every fourth job at 8x resolution (its own refinement key), deadlines,
// budgets, spot tenancy and preemption/corruption/crash faults. A spot
// attempt gives up at its first preemption (max_preemptions = 0), so
// preempted jobs requeue on on-demand capacity. With retries allowed, the
// restart overhead of this job shape trips the overrun guard before a
// second preemption can exhaust them, and no job is demoted.
TEST(GoldenSchedule, MixedFaultCampaignMatchesGoldenFiles) {
  CampaignScheduler scheduler = make_scheduler();
  scheduler.register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      kCalCounts);
  scheduler.register_workload("aorta", geometry::make_aorta({}), kCalCounts);
  scheduler.register_workload("cerebral",
                              geometry::make_cerebral({.depth = 5}),
                              kCalCounts);
  const std::vector<std::string> geometries = {"cylinder", "aorta",
                                               "cerebral"};
  std::vector<CampaignJobSpec> jobs;
  for (index_t i = 0; i < 120; ++i) {
    CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = geometries[static_cast<std::size_t>(i % 3)];
    spec.resolution_factor = i % 4 == 3 ? 8.0 : 1.0;
    spec.timesteps = 20000 + 5000 * (i % 5);
    spec.allow_spot = i % 2 == 1;
    if (i % 5 == 0) spec.deadline_s = units::Seconds{600.0};
    if (i % 7 == 0) spec.budget_dollars = units::Dollars{0.01};
    jobs.push_back(spec);
  }
  EngineConfig config;
  config.n_workers = 3;
  config.seed = 4;
  config.chunks_per_attempt = 2000;
  config.max_preemptions = 0;
  config.faults.extra_preemption_probability = 1e-4;
  config.faults.checkpoint_corruption_rate = 0.2;
  config.faults.worker_crash_probability = 5e-5;
  const GoldenRun run = run_campaign(scheduler, std::move(jobs), config);

  // The golden must cover the paths it exists to pin.
  const auto has = [&run](ProtocolEventKind kind, const std::string& detail) {
    return std::any_of(run.events.events.begin(), run.events.events.end(),
                       [&](const ProtocolEvent& e) {
                         return e.kind == kind &&
                                e.detail.find(detail) != std::string::npos;
                       });
  };
  EXPECT_TRUE(has(ProtocolEventKind::kFailed, "no (instance, core count)"));
  EXPECT_TRUE(has(ProtocolEventKind::kFailed, "budget exhausted"));
  EXPECT_TRUE(has(ProtocolEventKind::kRequeued, "retries"));
  EXPECT_TRUE(has(ProtocolEventKind::kRequeued, "crash"));
  EXPECT_TRUE(has(ProtocolEventKind::kRequeued, "overrun"));
  // Keyed refinement: an 8x job (ids divisible by 4) is placed after an 8x
  // attempt settled, i.e. from observations at its own key.
  const auto is_hires = [](const ProtocolEvent& e) { return e.job % 4 == 0; };
  const auto first_settle = std::find_if(
      run.events.events.begin(), run.events.events.end(),
      [&](const ProtocolEvent& e) {
        return is_hires(e) && (e.kind == ProtocolEventKind::kCompleted ||
                               e.kind == ProtocolEventKind::kRequeued);
      });
  ASSERT_NE(first_settle, run.events.events.end());
  EXPECT_TRUE(std::any_of(first_settle, run.events.events.end(),
                          [&](const ProtocolEvent& e) {
                            return is_hires(e) &&
                                   e.kind == ProtocolEventKind::kPlaced;
                          }));

  const bool csv = check_golden("mixed_faults_120_seed4.csv", run.csv);
  const bool history =
      check_golden("mixed_faults_120_seed4.history", run.history);
  if (csv || history) GTEST_SKIP() << "golden files regenerated";
}

}  // namespace
}  // namespace hemo::sched
