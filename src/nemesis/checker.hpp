// History-based invariant checker for the executor protocol.
//
// The protocol spec (specs/executor_protocol.md) states the scheduler/
// executor contract as invariants over recorded event histories; this is
// the machine checker. check_history replays a ProtocolHistory through a
// per-job state machine and flags every violation of:
//
//   E1  exactly-once termination        S1  state-machine legality
//   K1  checkpoint monotonicity         C1  cost conservation
//   T1  time coherence                  A1  attempt bound
//   R1  report consistency (when the final CampaignReport is given)
//
// check_trace_consistency covers H1 (history vs obs:: virtual trace).
// Worker-count and submission-order invariance (W1) compares several
// engine runs, and fault accounting (F1) needs the injected fault mix, so
// both are harness-level checks (harness.hpp), not history checks.
//
// The checker is deliberately independent of the engine: it reads only
// the recorded events, the submitted specs, and the engine limits, so a
// protocol regression in src/sched/ cannot hide itself by also breaking
// the checker. Violations carry the stable invariant id the spec, the
// mutation catalog (protocol_mutations, harness.hpp) and CI artifacts share.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sched/history.hpp"
#include "sched/job.hpp"
#include "sched/report.hpp"
#include "util/common.hpp"

namespace hemo::nemesis {

/// Engine limits the checker needs (mirrors EngineConfig).
struct CheckLimits {
  index_t max_attempts = 4;
};

/// One invariant violation, anchored to the offending event.
struct Violation {
  std::string invariant;  ///< stable id: "E1", "S1", "K1", ...
  index_t job = 0;        ///< 0 = campaign-level
  index_t seq = -1;       ///< offending event sequence, -1 when none
  std::string message;

  [[nodiscard]] std::string str() const;
};

/// Verdict of one checked history.
struct CheckResult {
  std::vector<Violation> violations;
  index_t events_checked = 0;
  index_t jobs_checked = 0;

  [[nodiscard]] bool passed() const noexcept { return violations.empty(); }
  /// True when some violation carries `invariant` (mutation kill test).
  [[nodiscard]] bool violates(const std::string& invariant) const;
  /// Multi-line rendering: verdict line plus one line per violation.
  [[nodiscard]] std::string summary() const;
};

/// Checks E1/S1/K1/C1/T1/A1 (+R1 when `report` is non-null) over the
/// history of a campaign submitted with `jobs` under `limits`.
[[nodiscard]] CheckResult check_history(
    const sched::ProtocolHistory& history,
    const std::vector<sched::CampaignJobSpec>& jobs,
    const CheckLimits& limits,
    const sched::CampaignReport* report = nullptr);

/// H1: per-kind event counts of the history match the virtual trace
/// instants recorded by `trace` (both streams must see every protocol
/// event). Call with the recorder that was enabled during the run.
[[nodiscard]] CheckResult check_trace_consistency(
    const sched::ProtocolHistory& history, const obs::TraceRecorder& trace);

}  // namespace hemo::nemesis
