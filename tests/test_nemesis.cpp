// Tier-1 tests for the nemesis fault harness (src/nemesis/): protocol
// history determinism and worker-count invariance (W1), the invariant
// checker on clean runs, fault accounting (F1), the mutation/seeded-bug
// self-test (every invariant of specs/executor_protocol.md has a mutant
// the checker kills), the schedule generators, and the CI
// failure-artifact writer. The longer seeded storm
// sweeps run in test_nemesis_slow.cpp (ctest label "slow").
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "nemesis/harness.hpp"
#include "util/rng.hpp"

namespace hemo::nemesis {
namespace {

NemesisSchedule storm_schedule(const std::string& storm,
                               std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return gen_schedule(storm, rng);
}

// ------------------------------------------------------------ determinism

TEST(NemesisHistory, ByteIdenticalAcrossWorkerCounts) {
  const NemesisSchedule schedule = storm_schedule("preemption_storm", 42);
  const RunArtifacts base = run_schedule(schedule, 1);
  ASSERT_FALSE(base.history.events.empty());
  for (const index_t workers : {2, 8}) {
    const RunArtifacts other = run_schedule(schedule, workers);
    EXPECT_EQ(base.history.canonical(), other.history.canonical())
        << "history differs at " << workers << " workers";
    EXPECT_EQ(base.csv, other.csv)
        << "report differs at " << workers << " workers";
  }
}

TEST(NemesisHistory, DeterministicReplay) {
  const NemesisSchedule schedule = storm_schedule("corruption_burst", 7);
  const RunArtifacts first = run_schedule(schedule, 2);
  const RunArtifacts again = run_schedule(schedule, 2);
  EXPECT_EQ(first.history.canonical(), again.history.canonical());
  EXPECT_EQ(first.csv, again.csv);
}

TEST(NemesisHistory, CanonicalRenderingIsOneLinePerEvent) {
  const NemesisSchedule schedule = storm_schedule("calm", 3);
  const RunArtifacts run = run_schedule(schedule, 1);
  const std::string canonical = run.history.canonical();
  std::size_t lines = 0;
  for (const char c : canonical) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, run.history.events.size());
  EXPECT_NE(canonical.find("submitted job=1"), std::string::npos);
  EXPECT_NE(canonical.find("placed"), std::string::npos);
}

// ---------------------------------------------------------------- checker

TEST(NemesisChecker, CleanRunsPassEveryInvariant) {
  for (const std::string& storm : storm_names()) {
    const NemesisSchedule schedule = storm_schedule(storm, 11);
    const RunArtifacts run = run_schedule(schedule, 2);
    CheckLimits limits;
    limits.max_attempts = schedule.max_attempts;
    const CheckResult result =
        check_history(run.history, schedule.jobs, limits, &run.report);
    EXPECT_TRUE(result.passed()) << storm << ":\n" << result.summary();
    EXPECT_EQ(result.jobs_checked,
              static_cast<index_t>(schedule.jobs.size()));
    EXPECT_GT(result.events_checked, 0);
  }
}

TEST(NemesisChecker, FullVerdictPassesOnEveryStorm) {
  for (const std::string& storm : storm_names()) {
    const NemesisVerdict verdict =
        run_nemesis(storm_schedule(storm, 1234));
    EXPECT_TRUE(verdict.passed)
        << storm << ": " << verdict.failure << "\n"
        << verdict.check.summary();
  }
}

// The teeth proof: every protocol mutation and every seeded live-engine
// bug is convicted on exactly the invariant the catalog states.
TEST(NemesisSelfTest, EveryMutantAndSeededBugIsDetected) {
  const SelfTestReport report = run_protocol_self_test(42);
  EXPECT_TRUE(report.baseline_passed);
  EXPECT_TRUE(report.all_detected()) << report.summary();
  // One outcome per catalog mutation plus the four seeded engine bugs.
  EXPECT_EQ(report.outcomes.size(),
            protocol_mutations().size() + 4);
  for (const SelfTestOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.detected)
        << outcome.name << " expected " << outcome.invariant << ": "
        << outcome.detail;
  }
}

TEST(NemesisSelfTest, SummaryIsDeterministic) {
  const SelfTestReport a = run_protocol_self_test(42);
  const SelfTestReport b = run_protocol_self_test(42);
  EXPECT_EQ(a.summary(), b.summary());
}

// ------------------------------------------------------------ crash fault

TEST(NemesisFaults, CrashStormCrashesAndStillSettlesCleanly) {
  // A crash-heavy schedule must actually exercise the new fault path...
  const NemesisSchedule schedule = storm_schedule("crash_storm", 5);
  ASSERT_GT(schedule.faults.worker_crash_probability, 0.0);
  const RunArtifacts run = run_schedule(schedule, 2);
  index_t crashes = 0;
  for (const auto& e : run.history.events) {
    if (e.kind == sched::ProtocolEventKind::kWorkerCrash) ++crashes;
  }
  EXPECT_GT(crashes, 0) << run.history.canonical();
  // ...and the protocol must hold under it.
  CheckLimits limits;
  limits.max_attempts = schedule.max_attempts;
  const CheckResult result =
      check_history(run.history, schedule.jobs, limits, &run.report);
  EXPECT_TRUE(result.passed()) << result.summary();
}

TEST(NemesisFaults, CalmScheduleRecordsNoInjectedFaultEvents) {
  // Natural spot preemptions may still occur in a calm schedule; crashes
  // and checkpoint corruption exist only as injected faults.
  const NemesisSchedule schedule = storm_schedule("calm", 9);
  const RunArtifacts run = run_schedule(schedule, 1);
  for (const auto& e : run.history.events) {
    EXPECT_NE(e.kind, sched::ProtocolEventKind::kWorkerCrash);
    EXPECT_NE(e.kind, sched::ProtocolEventKind::kCorruptRestore);
  }
}

// -------------------------------------------------------- fault accounting

TEST(NemesisHarness, FaultAccountingFlagsEachViolation) {
  const NemesisSchedule calm = storm_schedule("calm", 9);
  const RunArtifacts run = run_schedule(calm, 1);
  EXPECT_TRUE(check_fault_accounting(calm, run.history, run.report).passed())
      << check_fault_accounting(calm, run.history, run.report).summary();

  // A checkpoint corruption the calm schedule never injected.
  sched::ProtocolHistory corrupted = run.history;
  sched::ProtocolEvent restore = corrupted.events.back();
  restore.kind = sched::ProtocolEventKind::kCorruptRestore;
  corrupted.record(std::move(restore));
  EXPECT_TRUE(check_fault_accounting(calm, corrupted, run.report)
                  .violates("F1"));

  // A slowed on-demand campaign whose guard never stopped an attempt.
  const NemesisSchedule overrun = storm_schedule("overrun_storm", 9);
  const RunArtifacts slowed = run_schedule(overrun, 1);
  ASSERT_TRUE(
      check_fault_accounting(overrun, slowed.history, slowed.report)
          .passed());
  sched::ProtocolHistory unguarded = slowed.history;
  const auto guard_stops = std::erase_if(
      unguarded.events, [](const sched::ProtocolEvent& e) {
        return e.kind == sched::ProtocolEventKind::kGuardStop;
      });
  ASSERT_GT(guard_stops, 0u) << slowed.history.canonical();
  EXPECT_TRUE(check_fault_accounting(overrun, unguarded, slowed.report)
                  .violates("F1"));

  // Completed work that cost nothing.
  ASSERT_GT(run.report.n_completed, 0);
  sched::CampaignReport free_report = run.report;
  free_report.total_dollars = units::Dollars(0.0);
  EXPECT_TRUE(check_fault_accounting(calm, run.history, free_report)
                  .violates("F1"));
}

// --------------------------------------------------------------- artifacts

TEST(NemesisArtifacts, WritesScheduleHistoryReportAndVerdict) {
  NemesisFailure failure;
  failure.schedule = storm_schedule("mixed_storm", 21);
  failure.verdict = run_nemesis(failure.schedule);
  failure.verdict.failure = "synthetic: artifact writer test";

  const std::string dir =
      (std::filesystem::temp_directory_path() / "hemo_nemesis_artifacts")
          .string();
  std::filesystem::remove_all(dir);
  const std::vector<std::string> paths =
      write_failure_artifacts(failure, dir);
  ASSERT_EQ(paths.size(), 4u);
  for (const std::string& path : paths) {
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
  }
  std::ifstream schedule_file(paths[0]);
  std::stringstream text;
  text << schedule_file.rdbuf();
  EXPECT_NE(text.str().find("mixed_storm"), std::string::npos);
  EXPECT_NE(text.str().find("synthetic: artifact writer test"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------- generators

TEST(Generators, JobSpecsHaveUniqueSequentialIds) {
  Xoshiro256 rng(5);
  const auto jobs = gen_job_specs(rng, 12, "cylinder");
  ASSERT_EQ(jobs.size(), 12u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<index_t>(i) + 1);
    EXPECT_EQ(jobs[i].geometry, "cylinder");
    EXPECT_GE(jobs[i].timesteps, 200);
    EXPECT_LE(jobs[i].timesteps, 1000);
  }
}

TEST(NemesisSchedules, ShrinkCandidatesAreStrictlySmaller) {
  const NemesisSchedule schedule = storm_schedule("mixed_storm", 17);
  for (const NemesisSchedule& candidate : shrink_schedule(schedule)) {
    index_t steps = 0, base_steps = 0;
    for (const auto& j : candidate.jobs) steps += j.timesteps;
    for (const auto& j : schedule.jobs) base_steps += j.timesteps;
    const bool fewer_jobs = candidate.jobs.size() < schedule.jobs.size();
    const bool fewer_steps = steps < base_steps;
    const bool weaker_faults =
        candidate.faults.slowdown_factor <
            schedule.faults.slowdown_factor ||
        candidate.faults.extra_preemption_probability <
            schedule.faults.extra_preemption_probability ||
        candidate.faults.checkpoint_corruption_rate <
            schedule.faults.checkpoint_corruption_rate ||
        candidate.faults.worker_crash_probability <
            schedule.faults.worker_crash_probability;
    EXPECT_TRUE(fewer_jobs || fewer_steps || weaker_faults)
        << describe_schedule(candidate);
  }
}

TEST(NemesisSchedules, UnknownStormIsRejected) {
  Xoshiro256 rng(1);
  EXPECT_THROW((void)gen_schedule("hurricane", rng), PreconditionError);
}

}  // namespace
}  // namespace hemo::nemesis
