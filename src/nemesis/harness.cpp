#include "nemesis/harness.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "cluster/instance.hpp"
#include "geometry/generators.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace hemo::nemesis {

namespace {

/// A fresh check-scale scheduler: two small pools and one cylinder
/// workload. Rebuilt per run: the refinement tracker is shared mutable
/// campaign state and W1 replays need a cold start.
std::unique_ptr<sched::CampaignScheduler> make_nemesis_scheduler(
    const NemesisSchedule& schedule) {
  sched::SchedulerConfig config;
  config.core_counts = {8, 16, 32};
  config.guard_tolerance = schedule.guard_tolerance;
  config.pilot_steps = 120;
  config.spot.preemptions_per_hour =
      units::PerHour(schedule.spot_preemptions_per_hour);
  auto scheduler = std::make_unique<sched::CampaignScheduler>(
      std::vector<const cluster::InstanceProfile*>{
          &cluster::instance_by_abbrev("CSP-1"),
          &cluster::instance_by_abbrev("CSP-2 Small")},
      config);
  const std::vector<index_t> cal_counts = {2, 4, 8};
  scheduler->register_workload(
      "cylinder", geometry::make_cylinder({.radius = 6, .length = 40}),
      cal_counts);
  return scheduler;
}

}  // namespace

RunArtifacts run_schedule(const NemesisSchedule& schedule, index_t n_workers,
                          sched::SeededBug bug) {
  RunArtifacts artifacts;
  auto scheduler = make_nemesis_scheduler(schedule);
  sched::EngineConfig config;
  config.n_workers = n_workers;
  config.seed = schedule.engine_seed;
  config.faults = schedule.faults;
  config.max_attempts = schedule.max_attempts;
  config.chunks_per_attempt = schedule.chunks_per_attempt;
  config.history = &artifacts.history;
  config.seeded_bug = bug;
  sched::CampaignEngine engine(*scheduler, config);
  artifacts.report = engine.run(schedule.jobs);
  artifacts.csv = artifacts.report.to_csv();
  return artifacts;
}

const std::vector<index_t>& nemesis_worker_counts() {
  static const std::vector<index_t> counts = {1, 2, 8};
  return counts;
}

CheckResult check_fault_accounting(const NemesisSchedule& schedule,
                                   const sched::ProtocolHistory& history,
                                   const sched::CampaignReport& report) {
  CheckResult result;
  result.events_checked = static_cast<index_t>(history.events.size());
  result.jobs_checked = static_cast<index_t>(schedule.jobs.size());
  const auto flag = [&result](index_t job, index_t seq, std::string message) {
    result.violations.push_back({"F1", job, seq, std::move(message)});
  };
  const sched::FaultInjection& faults = schedule.faults;
  bool guard_stopped = false;
  for (const sched::ProtocolEvent& e : history.events) {
    if (e.kind == sched::ProtocolEventKind::kCorruptRestore &&
        faults.checkpoint_corruption_rate == 0.0) {
      flag(e.job, e.seq, "corrupt_restore without injected corruption");
    } else if (e.kind == sched::ProtocolEventKind::kWorkerCrash &&
               faults.worker_crash_probability == 0.0) {
      flag(e.job, e.seq, "worker_crash without injected crashes");
    } else if (e.kind == sched::ProtocolEventKind::kGuardStop) {
      guard_stopped = true;
    }
  }
  // Spot pricing widens the guard band past the slowdown (nemesis.cpp),
  // so only an all-on-demand schedule is sure to trip the guard.
  const bool on_demand = std::none_of(
      schedule.jobs.begin(), schedule.jobs.end(),
      [](const sched::CampaignJobSpec& job) { return job.allow_spot; });
  if (faults.slowdown_factor >= 1.4 && on_demand && !guard_stopped) {
    std::ostringstream os;
    os << "slowdown x" << faults.slowdown_factor
       << " on on-demand jobs never tripped the overrun guard";
    flag(0, -1, os.str());
  }
  if (report.n_completed > 0 && !(report.total_dollars.value() > 0.0)) {
    flag(0, -1, "completed work with zero cost");
  }
  return result;
}

NemesisVerdict run_nemesis(const NemesisSchedule& schedule) {
  NemesisVerdict verdict;

  // The base run records the obs:: virtual trace for the H1 cross-check.
  // The global recorder is borrowed and restored (prior events are
  // dropped — the engine is the only virtual-track producer by contract).
  obs::TraceRecorder& trace = obs::TraceRecorder::global();
  const bool was_enabled = trace.enabled();
  trace.reset();
  trace.enable(true);
  RunArtifacts base = run_schedule(schedule, nemesis_worker_counts().front());
  trace.enable(false);

  verdict.canonical_history = base.history.canonical();
  verdict.csv = base.csv;

  // W1: byte-identical history and report across worker counts, and
  // under reversed job submission order at 2 workers.
  const auto compare = [&verdict](const RunArtifacts& other,
                                  const std::string& where) {
    if (other.history.canonical() != verdict.canonical_history) {
      verdict.failure = "W1: history differs " + where;
    } else if (other.csv != verdict.csv) {
      verdict.failure = "W1: report differs " + where;
    }
  };
  for (std::size_t i = 1;
       verdict.failure.empty() && i < nemesis_worker_counts().size(); ++i) {
    const index_t workers = nemesis_worker_counts()[i];
    compare(run_schedule(schedule, workers),
            "between 1 and " + std::to_string(workers) + " workers");
  }
  if (verdict.failure.empty()) {
    NemesisSchedule reversed = schedule;
    std::reverse(reversed.jobs.begin(), reversed.jobs.end());
    compare(run_schedule(reversed, 2), "under reversed submission order");
  }

  // E1..R1 over the recorded history, against the final report.
  CheckLimits limits;
  limits.max_attempts = schedule.max_attempts;
  verdict.check =
      check_history(base.history, schedule.jobs, limits, &base.report);

  // H1: the history and the virtual trace saw the same events.
  CheckResult h1 = check_trace_consistency(base.history, trace);
  // F1: the run's fault events and spend match the injected fault mix.
  CheckResult f1 = check_fault_accounting(schedule, base.history, base.report);
  for (CheckResult* extra : {&h1, &f1}) {
    for (Violation& v : extra->violations) {
      verdict.check.violations.push_back(std::move(v));
    }
  }
  trace.reset();
  trace.enable(was_enabled);

  if (verdict.failure.empty() && !verdict.check.passed()) {
    verdict.failure = verdict.check.violations.front().str();
  }
  verdict.passed = verdict.failure.empty();
  return verdict;
}

check::PropertyResult nemesis_property(
    const std::string& storm, const check::PropertyConfig& config,
    std::shared_ptr<NemesisFailure>* minimal) {
  check::Property<NemesisSchedule> property;
  property.name = "nemesis(" + storm + ")";
  property.generate = [storm](Xoshiro256& rng) {
    return gen_schedule(storm, rng);
  };
  property.describe = describe_schedule;
  property.shrink = shrink_schedule;
  // run_property adopts every failing shrink candidate, so the last
  // failing check call is the minimal counterexample it reports — the
  // capture below therefore always holds the shrunk schedule.
  auto capture = std::make_shared<NemesisFailure>();
  property.check =
      [capture](const NemesisSchedule& s) -> std::optional<std::string> {
    NemesisVerdict v = run_nemesis(s);
    if (v.passed) return std::nullopt;
    capture->schedule = s;
    capture->verdict = std::move(v);
    return capture->verdict.failure;
  };
  const check::PropertyResult result = check::run_property(property, config);
  if (minimal != nullptr) {
    *minimal = result.passed ? nullptr : capture;
  }
  return result;
}

std::vector<std::string> write_failure_artifacts(const NemesisFailure& failure,
                                                 const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  const auto write = [&dir, &paths](const std::string& name,
                                    const std::string& content) {
    const std::string path = dir + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw NumericError("cannot write nemesis artifact: " + path);
    }
    out << content;
    paths.push_back(path);
  };
  std::ostringstream schedule;
  schedule << "storm: " << failure.schedule.storm << '\n'
           << "schedule: " << describe_schedule(failure.schedule) << '\n'
           << "engine_seed: " << failure.schedule.engine_seed << '\n'
           << "failure: " << failure.verdict.failure << '\n';
  write("schedule.txt", schedule.str());
  write("history.txt", failure.verdict.canonical_history);
  write("report.csv", failure.verdict.csv);
  write("verdict.txt", failure.verdict.check.summary());
  // When the CLI armed the flight recorder for this sweep, its ring holds
  // the last protocol events and metric snapshots before the violation —
  // dump them next to the shrunk reproducer.
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (recorder.enabled()) {
    recorder.note("nemesis", "invariant failure: " + failure.verdict.failure);
    write("flight_recorder.txt", recorder.dump());
  }
  return paths;
}

bool SelfTestReport::all_detected() const {
  if (!baseline_passed) return false;
  for (const SelfTestOutcome& o : outcomes) {
    if (!o.detected) return false;
  }
  return !outcomes.empty();
}

std::string SelfTestReport::summary() const {
  std::ostringstream os;
  os << "protocol self-test: baseline "
     << (baseline_passed ? "passed" : "FAILED") << '\n';
  for (const SelfTestOutcome& o : outcomes) {
    os << "  " << o.name << " -> " << o.invariant << ": "
       << (o.detected ? "detected" : "NOT DETECTED") << " (" << o.detail
       << ")\n";
  }
  return os.str();
}

namespace {

using sched::ProtocolEvent;
using sched::ProtocolEventKind;

bool is_terminal(ProtocolEventKind kind) {
  return kind == ProtocolEventKind::kCompleted ||
         kind == ProtocolEventKind::kFailed;
}

/// First event index satisfying `pred`, -1 when none.
template <typename Pred>
index_t find_event(const sched::ProtocolHistory& history, Pred pred) {
  for (std::size_t i = 0; i < history.events.size(); ++i) {
    if (pred(history.events[i])) return static_cast<index_t>(i);
  }
  return -1;
}

/// Latest virtual time in the history; appended events use it so a
/// mutation aimed at one invariant does not also run the clock backwards.
units::Seconds latest_time(const sched::ProtocolHistory& history) {
  units::Seconds t;
  for (const ProtocolEvent& e : history.events) t = std::max(t, e.at_s);
  return t;
}

void erase_event(sched::ProtocolHistory& history, index_t index) {
  history.events.erase(history.events.begin() + index);
}

}  // namespace

const std::vector<ProtocolMutation>& protocol_mutations() {
  static const std::vector<ProtocolMutation> catalog = [] {
    std::vector<ProtocolMutation> muts;

    // S1: drop a requeue whose job is placed again later — the next
    // placement now races an attempt the history says is still live.
    muts.push_back(
        {"drop_requeue", "S1",
         [](sched::ProtocolHistory& h, index_t) {
           for (std::size_t i = 0; i < h.events.size(); ++i) {
             if (h.events[i].kind != ProtocolEventKind::kRequeued) continue;
             for (std::size_t j = i + 1; j < h.events.size(); ++j) {
               if (h.events[j].kind == ProtocolEventKind::kPlaced &&
                   h.events[j].job == h.events[i].job) {
                 erase_event(h, static_cast<index_t>(i));
                 return true;
               }
             }
           }
           return false;
         }});

    // C1: apply a settled attempt's cost twice — the cumulative spend no
    // longer equals the placement's spend plus the attempt's delta.
    muts.push_back(
        {"double_charge", "C1",
         [](sched::ProtocolHistory& h, index_t) {
           const index_t i = find_event(h, [](const ProtocolEvent& e) {
             return (e.kind == ProtocolEventKind::kRequeued ||
                     is_terminal(e.kind)) &&
                    e.attempt >= 1 && e.delta_usd.value() > 0.0;
           });
           if (i < 0) return false;
           h.events[static_cast<std::size_t>(i)].usd +=
               h.events[static_cast<std::size_t>(i)].delta_usd;
           return true;
         }});

    // K1: a re-placement resumes one step past the durable checkpoint,
    // fabricating progress that was never computed.
    muts.push_back(
        {"skip_restore", "K1",
         [](sched::ProtocolHistory& h, index_t) {
           const index_t i = find_event(h, [](const ProtocolEvent& e) {
             return e.kind == ProtocolEventKind::kPlaced && e.attempt >= 2;
           });
           if (i < 0) return false;
           h.events[static_cast<std::size_t>(i)].steps += 1;
           return true;
         }});

    // E1: a job's terminal outcome is lost — it ends the campaign in a
    // non-terminal state.
    muts.push_back(
        {"drop_terminal", "E1",
         [](sched::ProtocolHistory& h, index_t) {
           for (std::size_t i = h.events.size(); i-- > 0;) {
             if (is_terminal(h.events[i].kind)) {
               erase_event(h, static_cast<index_t>(i));
               return true;
             }
           }
           return false;
         }});

    // E1: a terminal outcome is delivered twice.
    muts.push_back(
        {"duplicate_terminal", "E1",
         [](sched::ProtocolHistory& h, index_t) {
           const index_t i = find_event(h, [](const ProtocolEvent& e) {
             return is_terminal(e.kind);
           });
           if (i < 0) return false;
           ProtocolEvent copy = h.events[static_cast<std::size_t>(i)];
           copy.at_s = latest_time(h);
           copy.seq = static_cast<index_t>(h.events.size());
           h.events.push_back(std::move(copy));
           return true;
         }});

    // T1: a settlement is stamped before the campaign started — the
    // coordinator clock runs backwards.
    muts.push_back(
        {"time_warp", "T1",
         [](sched::ProtocolHistory& h, index_t) {
           const index_t i = find_event(h, [](const ProtocolEvent& e) {
             return (e.kind == ProtocolEventKind::kRequeued ||
                     is_terminal(e.kind)) &&
                    e.at_s.value() > 0.0;
           });
           if (i < 0) return false;
           h.events[static_cast<std::size_t>(i)].at_s =
               units::Seconds{-1.0};
           return true;
         }});

    // A1: reopen a completed job and requeue it past the attempt bound.
    // The appended cycle keeps steps/spend/ordinals self-consistent so
    // only the attempt bound is violated.
    muts.push_back(
        {"requeue_past_attempt_limit", "A1",
         [](sched::ProtocolHistory& h, index_t max_attempts) {
           const index_t ti = find_event(h, [](const ProtocolEvent& e) {
             return e.kind == ProtocolEventKind::kCompleted;
           });
           if (ti < 0) return false;
           const ProtocolEvent terminal =
               h.events[static_cast<std::size_t>(ti)];
           // The completed attempt's entry checkpoint, for the first
           // requeue's deltas.
           index_t placed_steps = 0;
           real_t placed_usd = 0.0;
           for (index_t i = ti; i-- > 0;) {
             const ProtocolEvent& e = h.events[static_cast<std::size_t>(i)];
             if (e.job == terminal.job &&
                 e.kind == ProtocolEventKind::kPlaced) {
               placed_steps = e.steps;
               placed_usd = e.usd.value();
               break;
             }
           }
           erase_event(h, ti);
           const units::Seconds t = latest_time(h);
           const auto append = [&h, &terminal, t](ProtocolEventKind kind,
                                                  index_t attempt,
                                                  index_t delta_steps,
                                                  real_t delta_usd) {
             ProtocolEvent e;
             e.seq = static_cast<index_t>(h.events.size());
             e.kind = kind;
             e.job = terminal.job;
             e.attempt = attempt;
             e.at_s = t;
             e.steps = terminal.steps;
             e.usd = terminal.usd;
             e.delta_steps = delta_steps;
             e.delta_usd = units::Dollars(delta_usd);
             h.events.push_back(std::move(e));
           };
           index_t attempt = terminal.attempt;
           append(ProtocolEventKind::kRequeued, attempt,
                  terminal.steps - placed_steps,
                  terminal.usd.value() - placed_usd);
           while (attempt < max_attempts) {
             append(ProtocolEventKind::kPlaced, attempt + 1, 0, 0.0);
             ++attempt;
             append(ProtocolEventKind::kRequeued, attempt, 0, 0.0);
           }
           // Close the job again so only A1 (not E1) is violated.
           append(ProtocolEventKind::kFailed, attempt, 0, 0.0);
           return true;
         }});

    // H1: the history claims a preemption the trace never saw.
    muts.push_back(
        {"phantom_fault", "H1",
         [](sched::ProtocolHistory& h, index_t) {
           const index_t i = find_event(h, [](const ProtocolEvent& e) {
             return e.kind == ProtocolEventKind::kPlaced;
           });
           if (i < 0) return false;
           ProtocolEvent e;
           e.seq = static_cast<index_t>(h.events.size());
           e.kind = ProtocolEventKind::kPreemption;
           e.job = h.events[static_cast<std::size_t>(i)].job;
           e.attempt = h.events[static_cast<std::size_t>(i)].attempt;
           e.at_s = latest_time(h);
           e.steps = h.events[static_cast<std::size_t>(i)].steps;
           e.usd = h.events[static_cast<std::size_t>(i)].usd;
           h.events.push_back(std::move(e));
           return true;
         }});

    return muts;
  }();
  return catalog;
}

SelfTestReport run_protocol_self_test(std::uint64_t seed) {
  SelfTestReport report;

  // Find a busy seeded run: the corruption burst exercises requeues,
  // resumes and completions — every event shape the mutations need. A
  // handful of sub-seeds is always enough at these fault rates.
  std::optional<NemesisSchedule> schedule;
  RunArtifacts base;
  CheckLimits limits;
  obs::TraceRecorder& trace = obs::TraceRecorder::global();
  const bool was_enabled = trace.enabled();
  for (std::uint64_t k = 0; k < 24 && !schedule; ++k) {
    Xoshiro256 rng(hash_seed(seed, k));
    NemesisSchedule candidate = gen_schedule("corruption_burst", rng);
    trace.reset();
    trace.enable(true);
    RunArtifacts run = run_schedule(candidate, 2);
    trace.enable(false);
    limits.max_attempts = candidate.max_attempts;
    if (!check_history(run.history, candidate.jobs, limits, &run.report)
             .passed()) {
      // A genuine protocol violation: surface it as a failed baseline
      // rather than hunting for a quieter seed.
      report.baseline_passed = false;
      trace.reset();
      trace.enable(was_enabled);
      return report;
    }
    bool applicable = true;
    for (const ProtocolMutation& mutation :
         protocol_mutations()) {
      sched::ProtocolHistory copy = run.history;
      if (!mutation.apply(copy, limits.max_attempts)) {
        applicable = false;
        break;
      }
    }
    if (applicable) {
      schedule = std::move(candidate);
      base = std::move(run);
    }
  }
  if (!schedule) {
    report.baseline_passed = false;
    trace.reset();
    trace.enable(was_enabled);
    return report;
  }
  report.baseline_passed = true;

  // Every history mutation must be flagged on its stated invariant.
  for (const ProtocolMutation& mutation : protocol_mutations()) {
    SelfTestOutcome outcome;
    outcome.name = "mutation:" + mutation.name;
    outcome.invariant = mutation.invariant;
    sched::ProtocolHistory mutated = base.history;
    mutation.apply(mutated, limits.max_attempts);
    const CheckResult result =
        mutation.invariant == "H1"
            ? check_trace_consistency(mutated, trace)
            : check_history(mutated, schedule->jobs, limits);
    outcome.detected = result.violates(mutation.invariant);
    if (outcome.detected) {
      for (const Violation& v : result.violations) {
        if (v.invariant == mutation.invariant) {
          outcome.detail = v.str();
          break;
        }
      }
    } else {
      outcome.detail = result.passed()
                           ? "checker passed the mutated history"
                           : "flagged only: " + result.violations.front().str();
    }
    report.outcomes.push_back(std::move(outcome));
  }
  trace.reset();
  trace.enable(was_enabled);

  // Every seeded live-engine bug must be caught end to end: the buggy
  // engine records its own history, and the checker convicts it.
  struct BugCase {
    sched::SeededBug bug;
    const char* name;
    const char* invariant;
  };
  const BugCase bugs[] = {
      {sched::SeededBug::kDoubleCharge, "bug:double_charge", "C1"},
      {sched::SeededBug::kLostRequeue, "bug:lost_requeue", "E1"},
      {sched::SeededBug::kDoubleRequeue, "bug:double_requeue", "S1"},
      {sched::SeededBug::kSkipRestore, "bug:skip_restore", "K1"},
  };
  for (const BugCase& bug : bugs) {
    SelfTestOutcome outcome;
    outcome.name = bug.name;
    outcome.invariant = bug.invariant;
    const RunArtifacts buggy = run_schedule(*schedule, 2, bug.bug);
    const CheckResult result =
        check_history(buggy.history, schedule->jobs, limits);
    outcome.detected = result.violates(bug.invariant);
    if (outcome.detected) {
      for (const Violation& v : result.violations) {
        if (v.invariant == bug.invariant) {
          outcome.detail = v.str();
          break;
        }
      }
    } else {
      outcome.detail =
          result.passed()
              ? "checker passed the buggy engine's history"
              : "flagged only: " + result.violations.front().str();
    }
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

}  // namespace hemo::nemesis
