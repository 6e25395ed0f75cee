#include "nemesis/checker.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace hemo::nemesis {

namespace {

using sched::ProtocolEvent;
using sched::ProtocolEventKind;

/// Dollar comparisons: cumulative values are produced by the same
/// floating-point accumulation the deltas describe, so agreement is exact
/// in practice; the tolerance only forgives representation noise, never a
/// real double charge (the smallest attempt costs are ~1e-4 USD).
bool usd_equal(real_t a, real_t b) {
  return std::abs(a - b) <= 1e-9 * std::max({real_t(1.0), std::abs(a),
                                             std::abs(b)});
}

std::string num(real_t value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

/// Per-job protocol state machine (specs/executor_protocol.md §3).
struct JobTrack {
  enum class State { kQueued, kRunning, kStopping, kTerminal };

  bool submitted = false;
  State state = State::kQueued;
  index_t attempts = 0;  ///< placed count so far
  index_t steps = 0;     ///< cumulative steps at last queue/settle event
  real_t usd = 0.0;      ///< cumulative spend at last queue/settle event
  index_t placed_steps = 0;  ///< cumulative steps at the open attempt's placed
  real_t placed_usd = 0.0;
  real_t placed_t = 0.0;
  index_t prev_attempt_steps = 0;  ///< last in-attempt event's steps
  real_t last_t = 0.0;             ///< last event time of this job
  index_t terminals = 0;
  bool completed = false;
  index_t preemptions = 0;
  index_t corruptions = 0;
  index_t guard_stops = 0;
  index_t crashes = 0;
  index_t requeues = 0;
};

}  // namespace

std::string Violation::str() const {
  std::ostringstream os;
  os << invariant;
  if (job > 0) os << " job " << job;
  if (seq >= 0) os << " @seq " << seq;
  os << ": " << message;
  return os.str();
}

bool CheckResult::violates(const std::string& invariant) const {
  for (const Violation& v : violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

std::string CheckResult::summary() const {
  std::ostringstream os;
  os << (passed() ? "protocol check: PASS" : "protocol check: FAIL") << " ("
     << events_checked << " events, " << jobs_checked << " jobs, "
     << violations.size() << " violations)\n";
  for (const Violation& v : violations) os << "  " << v.str() << '\n';
  return os.str();
}

CheckResult check_history(const sched::ProtocolHistory& history,
                          const std::vector<sched::CampaignJobSpec>& jobs,
                          const CheckLimits& limits,
                          const sched::CampaignReport* report) {
  CheckResult result;
  std::map<index_t, JobTrack> tracks;
  std::map<index_t, const sched::CampaignJobSpec*> specs;
  for (const sched::CampaignJobSpec& spec : jobs) specs[spec.id] = &spec;

  const auto flag = [&result](const char* invariant, index_t job,
                              index_t seq, std::string message) {
    result.violations.push_back(
        {invariant, job, seq, std::move(message)});
  };

  real_t global_clock = 0.0;  ///< last queue/settlement event time
  for (const ProtocolEvent& e : history.events) {
    ++result.events_checked;
    const real_t t = e.at_s.value();
    if (specs.find(e.job) == specs.end()) {
      flag("E1", e.job, e.seq, "event for a job that was never submitted");
      continue;
    }
    JobTrack& track = tracks[e.job];

    // T1: per-job times never run backwards; queue/settlement events
    // follow the coordinator clock, which is globally monotone.
    const bool mid = sched::is_mid_attempt(e.kind);
    if (track.submitted && t < track.last_t) {
      flag("T1", e.job, e.seq,
           "job time ran backwards: " + num(t) + " < " + num(track.last_t));
    }
    if (!mid) {
      if (t < global_clock) {
        flag("T1", e.job, e.seq,
             "coordinator clock ran backwards: " + num(t) + " < " +
                 num(global_clock));
      }
      global_clock = std::max(global_clock, t);
    }
    track.last_t = std::max(track.last_t, t);

    // C1a: cumulative spend never decreases.
    if (track.submitted && e.usd.value() < track.usd - 1e-12 &&
        e.usd.value() < track.placed_usd - 1e-12) {
      flag("C1", e.job, e.seq, "cumulative spend decreased");
    }

    if (track.state == JobTrack::State::kTerminal) {
      flag("E1", e.job, e.seq,
           std::string("event after terminal: ") +
               sched::protocol_event_name(e.kind));
      continue;
    }

    switch (e.kind) {
      case ProtocolEventKind::kSubmitted: {
        if (track.submitted) {
          flag("E1", e.job, e.seq, "job submitted twice");
          break;
        }
        track.submitted = true;
        if (t != 0.0) {
          flag("T1", e.job, e.seq, "submission not at campaign start");
        }
        if (e.steps != 0 || e.usd.value() != 0.0) {
          flag("C1", e.job, e.seq, "submitted with nonzero steps or spend");
        }
        break;
      }
      case ProtocolEventKind::kPlaced: {
        if (!track.submitted || track.state != JobTrack::State::kQueued) {
          flag("S1", e.job, e.seq, "placed while not queued");
        }
        ++track.attempts;
        if (e.attempt != track.attempts) {
          flag("S1", e.job, e.seq,
               "attempt ordinal " + std::to_string(e.attempt) +
                   " != expected " + std::to_string(track.attempts));
        }
        if (track.attempts > limits.max_attempts) {
          flag("A1", e.job, e.seq,
               "attempt " + std::to_string(track.attempts) +
                   " exceeds max_attempts " +
                   std::to_string(limits.max_attempts));
        }
        if (e.steps != track.steps) {
          flag("K1", e.job, e.seq,
               "resume at " + std::to_string(e.steps) +
                   " steps != checkpointed " + std::to_string(track.steps));
        }
        if (!usd_equal(e.usd.value(), track.usd)) {
          flag("C1", e.job, e.seq, "spend changed while queued");
        }
        track.state = JobTrack::State::kRunning;
        track.placed_steps = e.steps;
        track.placed_usd = e.usd.value();
        track.placed_t = t;
        track.prev_attempt_steps = e.steps;
        break;
      }
      case ProtocolEventKind::kPreemption:
      case ProtocolEventKind::kCorruptRestore:
      case ProtocolEventKind::kGuardStop:
      case ProtocolEventKind::kWorkerCrash: {
        if (track.state != JobTrack::State::kRunning) {
          flag("S1", e.job, e.seq,
               std::string(sched::protocol_event_name(e.kind)) +
                   " outside a running attempt");
          break;
        }
        if (e.attempt != track.attempts) {
          flag("S1", e.job, e.seq, "mid-attempt event with wrong ordinal");
        }
        if (t < track.placed_t) {
          flag("T1", e.job, e.seq, "mid-attempt event before placement");
        }
        if (e.steps < track.placed_steps) {
          flag("K1", e.job, e.seq,
               "in-attempt progress below the attempt's entry checkpoint");
        }
        if (e.steps < track.prev_attempt_steps &&
            e.kind != ProtocolEventKind::kCorruptRestore) {
          flag("K1", e.job, e.seq,
               "progress rolled back without a corrupt restore");
        }
        if (!usd_equal(e.usd.value(), track.placed_usd)) {
          flag("C1", e.job, e.seq,
               "spend moved mid-attempt (cost is charged at settlement)");
        }
        track.prev_attempt_steps = e.steps;
        if (e.kind == ProtocolEventKind::kPreemption) ++track.preemptions;
        if (e.kind == ProtocolEventKind::kCorruptRestore) ++track.corruptions;
        if (e.kind == ProtocolEventKind::kGuardStop) {
          ++track.guard_stops;
          track.state = JobTrack::State::kStopping;
        }
        if (e.kind == ProtocolEventKind::kWorkerCrash) {
          ++track.crashes;
          track.state = JobTrack::State::kStopping;
        }
        break;
      }
      case ProtocolEventKind::kRequeued:
      case ProtocolEventKind::kCompleted:
      case ProtocolEventKind::kFailed: {
        const bool settlement =
            track.state == JobTrack::State::kRunning ||
            track.state == JobTrack::State::kStopping;
        if (e.kind == ProtocolEventKind::kCompleted && !settlement) {
          flag("S1", e.job, e.seq, "completed without a running attempt");
        }
        if (e.kind == ProtocolEventKind::kRequeued && !settlement) {
          flag("S1", e.job, e.seq, "requeued without a running attempt");
        }
        if (!track.submitted) {
          flag("S1", e.job, e.seq, "settled before submission");
        }
        if (e.attempt != track.attempts) {
          flag("S1", e.job, e.seq, "settlement with wrong attempt ordinal");
        }
        if (settlement) {
          if (e.delta_steps < 0 || e.delta_usd.value() < 0.0) {
            flag("C1", e.job, e.seq, "negative settlement delta");
          }
          if (e.steps != track.placed_steps + e.delta_steps) {
            flag("K1", e.job, e.seq,
                 "settlement steps " + std::to_string(e.steps) +
                     " != placed " + std::to_string(track.placed_steps) +
                     " + delta " + std::to_string(e.delta_steps));
          }
          if (!usd_equal(e.usd.value(),
                         track.placed_usd + e.delta_usd.value())) {
            flag("C1", e.job, e.seq,
                 "settlement spend " + num(e.usd.value()) + " != placed " +
                     num(track.placed_usd) + " + delta " +
                     num(e.delta_usd.value()));
          }
        } else {
          // Queue-side failure: nothing ran, nothing may change.
          if (e.steps != track.steps || e.delta_steps != 0) {
            flag("K1", e.job, e.seq, "queue-side event changed progress");
          }
          if (!usd_equal(e.usd.value(), track.usd) ||
              e.delta_usd.value() != 0.0) {
            flag("C1", e.job, e.seq, "queue-side event changed spend");
          }
        }
        if (e.kind == ProtocolEventKind::kCompleted) {
          const sched::CampaignJobSpec* spec = specs[e.job];
          if (e.steps < spec->timesteps) {
            flag("K1", e.job, e.seq,
                 "completed at " + std::to_string(e.steps) + " < " +
                     std::to_string(spec->timesteps) + " timesteps");
          }
        }
        track.steps = e.steps;
        track.usd = e.usd.value();
        if (e.kind == ProtocolEventKind::kRequeued) {
          ++track.requeues;
          if (track.attempts >= limits.max_attempts) {
            flag("A1", e.job, e.seq,
                 "requeued with no attempts left (attempt " +
                     std::to_string(track.attempts) + " of " +
                     std::to_string(limits.max_attempts) + ")");
          }
          track.state = JobTrack::State::kQueued;
        } else {
          ++track.terminals;
          track.completed = e.kind == ProtocolEventKind::kCompleted;
          track.state = JobTrack::State::kTerminal;
        }
        break;
      }
    }
  }

  // E1 closing pass: every submitted job reached exactly one terminal.
  for (const auto& [id, spec] : specs) {
    (void)spec;
    ++result.jobs_checked;
    const auto it = tracks.find(id);
    if (it == tracks.end() || !it->second.submitted) {
      flag("E1", id, -1, "job was never submitted to the history");
      continue;
    }
    if (it->second.terminals != 1) {
      flag("E1", id, -1,
           "job has " + std::to_string(it->second.terminals) +
               " terminal events (want exactly 1)");
    }
  }

  // R1: the report is a projection of the history.
  if (report != nullptr) {
    index_t completed = 0, failed = 0, preemptions = 0, corruptions = 0,
            overruns = 0, requeues = 0;
    real_t dollars = 0.0;
    for (const sched::JobReportRow& row : report->jobs) {
      const auto it = tracks.find(row.id);
      if (it == tracks.end()) {
        flag("R1", row.id, -1, "report row for a job with no history");
        continue;
      }
      const JobTrack& track = it->second;
      if (row.attempts != track.attempts) {
        flag("R1", row.id, -1,
             "report attempts " + std::to_string(row.attempts) +
                 " != history " + std::to_string(track.attempts));
      }
      if (row.preemptions != track.preemptions) {
        flag("R1", row.id, -1, "report preemptions != history");
      }
      if (row.overruns != track.guard_stops) {
        flag("R1", row.id, -1, "report overruns != history guard stops");
      }
      const bool row_terminal = row.state == sched::JobState::kCompleted ||
                                row.state == sched::JobState::kFailed;
      if (row_terminal != (track.terminals == 1) ||
          (row.state == sched::JobState::kCompleted) !=
              (track.terminals == 1 && track.completed)) {
        flag("R1", row.id, -1, "report state disagrees with history");
      }
      if (!usd_equal(row.dollars.value(), track.usd)) {
        flag("R1", row.id, -1, "report dollars != history spend");
      }
      if (track.completed) ++completed;
      if (track.terminals == 1 && !track.completed) ++failed;
      preemptions += track.preemptions;
      corruptions += track.corruptions;
      overruns += track.guard_stops;
      requeues += std::max<index_t>(0, track.attempts - 1);
      dollars += track.usd;
    }
    if (report->n_completed != completed || report->n_failed != failed) {
      flag("R1", 0, -1, "report completion totals != history");
    }
    if (report->total_preemptions != preemptions ||
        report->total_corruptions != corruptions ||
        report->total_overruns != overruns ||
        report->total_requeues != requeues) {
      flag("R1", 0, -1, "report fault/requeue totals != history");
    }
    if (!usd_equal(report->total_dollars.value(), dollars)) {
      flag("R1", 0, -1, "report total dollars != history spend");
    }
  }
  return result;
}

CheckResult check_trace_consistency(const sched::ProtocolHistory& history,
                                    const obs::TraceRecorder& trace) {
  CheckResult result;
  result.events_checked = static_cast<index_t>(history.events.size());
  std::map<std::string, index_t> history_counts;
  for (const ProtocolEvent& e : history.events) {
    if (e.kind == ProtocolEventKind::kSubmitted) continue;  // not traced
    ++history_counts[sched::protocol_event_name(e.kind)];
  }
  std::map<std::string, index_t> trace_counts;
  for (const auto& ev : trace.virtual_events()) {
    if (ev.phase != 'i') continue;
    if (ev.category != "sched" && ev.category != "fault") continue;
    if (history_counts.find(ev.name) == history_counts.end() &&
        ev.name != "placed" && ev.name != "requeued" &&
        ev.name != "completed" && ev.name != "failed" &&
        ev.name != "preemption" && ev.name != "corrupt_restore" &&
        ev.name != "guard_stop" && ev.name != "worker_crash") {
      continue;  // unrelated instant (metrics gauges etc.)
    }
    ++trace_counts[ev.name];
  }
  for (const auto& [name, count] : history_counts) {
    const auto it = trace_counts.find(name);
    const index_t traced = it == trace_counts.end() ? 0 : it->second;
    if (traced != count) {
      result.violations.push_back(
          {"H1", 0, -1,
           "history has " + std::to_string(count) + " '" + name +
               "' events but the trace has " + std::to_string(traced)});
    }
  }
  for (const auto& [name, count] : trace_counts) {
    if (history_counts.find(name) == history_counts.end() && count > 0) {
      result.violations.push_back(
          {"H1", 0, -1,
           "trace has " + std::to_string(count) + " '" + name +
               "' instants missing from the history"});
    }
  }
  return result;
}

}  // namespace hemo::nemesis
