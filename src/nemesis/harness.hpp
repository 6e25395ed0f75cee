// The nemesis harness: drives seeded fault storms through the real
// engine, records the protocol history, and replays it through the
// invariant checker. It is the one place campaigns run under faults.
//
// Three layers of trust, each mechanically checkable:
//
//  1. run_nemesis drives one NemesisSchedule through sched::CampaignEngine
//     at worker counts {1, 2, 8}, and once more with the jobs submitted in
//     reverse order, asserting the canonical history and the CSV report
//     are byte-identical across all of them (invariant W1). It then
//     replays the base history through check_history (E1..R1 against the
//     final report), check_trace_consistency (H1 against the obs::
//     virtual trace) and check_fault_accounting (F1 against the
//     schedule's fault mix).
//  2. nemesis_property wraps run_nemesis as a property over generated
//     storm schedules, with greedy shrinking to a minimal failing
//     schedule; the minimal schedule and its verdict are captured for CI
//     artifact upload (write_failure_artifacts).
//  3. run_protocol_self_test proves the checker has teeth: a clean run
//     passes; every protocol_mutations() corruption of a real recorded
//     history is flagged on its stated invariant; and every
//     sched::SeededBug engine variant is caught end-to-end through the
//     live engine → history → checker path.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "nemesis/checker.hpp"
#include "nemesis/nemesis.hpp"
#include "sched/executor.hpp"
#include "sched/history.hpp"
#include "sched/report.hpp"

namespace hemo::nemesis {

/// Everything one engine run under a schedule produced.
struct RunArtifacts {
  sched::ProtocolHistory history;
  sched::CampaignReport report;
  std::string csv;  ///< report.to_csv() (the W1 report artifact)
};

/// Runs `schedule` once with `n_workers` workers on a fresh check-scale
/// scheduler (two pools, CSP-1 and CSP-2 Small, one cylinder workload).
/// `bug` seeds a deliberate protocol violation (self-tests only). The
/// obs:: global trace recorder is left untouched; enable it around this
/// call to collect the H1 cross-check stream.
[[nodiscard]] RunArtifacts run_schedule(
    const NemesisSchedule& schedule, index_t n_workers,
    sched::SeededBug bug = sched::SeededBug::kNone);

/// Worker counts the W1 invariance sweep compares: {1, 2, 8}.
[[nodiscard]] const std::vector<index_t>& nemesis_worker_counts();

/// Verdict of one schedule.
struct NemesisVerdict {
  bool passed = false;
  std::string failure;  ///< first failing property, empty when passed
  CheckResult check;    ///< invariant check of the base (1-worker) run
  std::string canonical_history;  ///< base run's canonical bytes
  std::string csv;                ///< base run's report CSV
};

/// F1, fault accounting: the base run's history and report agree with the
/// fault mix the schedule injected. Flags a corrupt_restore event without
/// checkpoint corruption, a worker_crash event without crash injection, a
/// slowdown of at least 1.4x on an all-on-demand schedule that never
/// tripped the overrun guard, and completed work that cost nothing.
[[nodiscard]] CheckResult check_fault_accounting(
    const NemesisSchedule& schedule, const sched::ProtocolHistory& history,
    const sched::CampaignReport& report);

/// Full check of one schedule: W1 across worker counts and submission
/// order, then E1..R1, H1 and F1 over the base run's history.
[[nodiscard]] NemesisVerdict run_nemesis(const NemesisSchedule& schedule);

/// A failing schedule with its verdict (minimal after shrinking).
struct NemesisFailure {
  NemesisSchedule schedule;
  NemesisVerdict verdict;
};

/// Property over generated `storm` schedules: every one must pass
/// run_nemesis. On failure, `*minimal` (when non-null) receives the
/// shrunk minimal schedule and its verdict for artifact writing.
[[nodiscard]] check::PropertyResult nemesis_property(
    const std::string& storm, const check::PropertyConfig& config,
    std::shared_ptr<NemesisFailure>* minimal = nullptr);

/// Writes `failure` under `dir` (created if missing): the shrunk
/// schedule description, the recorded canonical history, the report CSV,
/// and the checker verdict. Returns the paths written.
std::vector<std::string> write_failure_artifacts(
    const NemesisFailure& failure, const std::string& dir);

/// One self-test outcome: a mutation or seeded engine bug, the invariant
/// expected to flag it, and whether the checker did.
struct SelfTestOutcome {
  std::string name;       ///< "mutation:drop_requeue" / "bug:lost_requeue"
  std::string invariant;  ///< expected stable id
  bool detected = false;
  std::string detail;  ///< evidence (flagged violation) or why not
};

/// Checker self-test verdict.
struct SelfTestReport {
  bool baseline_passed = false;  ///< the unmutated run checks clean
  std::vector<SelfTestOutcome> outcomes;

  [[nodiscard]] bool all_detected() const;
  [[nodiscard]] std::string summary() const;
};

/// One executor-protocol mutation: a seeded corruption of a recorded
/// ProtocolHistory that the invariant checker must flag. Each protocol
/// invariant of specs/executor_protocol.md has at least one mutant here
/// that only it kills.
struct ProtocolMutation {
  std::string name;       ///< e.g. "drop_requeue"
  std::string invariant;  ///< stable id the checker must flag ("S1", ...)
  /// Corrupts `history` in place; returns false when the history has no
  /// suitable event (the caller should pick a busier seeded run).
  /// `max_attempts` mirrors the engine limit the checker is handed.
  std::function<bool(sched::ProtocolHistory& history, index_t max_attempts)>
      apply;
};

/// The protocol-mutation catalog. Covers every history-checkable
/// invariant: drop_requeue (S1), double_charge (C1), skip_restore (K1),
/// drop_terminal + duplicate_terminal (E1), time_warp (T1),
/// requeue_past_attempt_limit (A1), phantom_fault (H1 — detected by the
/// history-vs-trace cross-check, not check_history).
[[nodiscard]] const std::vector<ProtocolMutation>& protocol_mutations();

/// Proves the checker kills every seeded protocol violation: replays a
/// busy recorded history through every protocol_mutations() entry,
/// and runs every sched::SeededBug through the live engine. `seed` keys
/// the schedule generation; the same seed reproduces the same report.
[[nodiscard]] SelfTestReport run_protocol_self_test(std::uint64_t seed);

}  // namespace hemo::nemesis
