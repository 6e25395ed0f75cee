// campaign-* workloads: the `hemocloud_cli schedule` product loop.
//
//   sched::CampaignScheduler (kMinCost, cores {16,36,72,144})
//     -> register_workload(geometry, cal_counts {2,4,8,16,32})
//     -> sched::CampaignEngine::run(jobs)
//
// Every campaign builds a fresh scheduler: the refinement tracker learns
// from each run, so reusing one would change the next campaign's input.
// The headline is terminal jobs per second of CampaignEngine::run (median
// over the campaigns of the run). The traced half turns on the existing
// obs::PhaseProfiler and MetricsRegistry; the place/execute/correction
// probes run afterwards on the last campaign's end state.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "cluster/instance.hpp"
#include "cluster/virtual_cluster.hpp"
#include "common.hpp"
#include "geometry/generators.hpp"
#include "nemesis/checker.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/executor.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace hemo;

/// Campaign k of a run uses seed slot k % kSeedSlots: slot 0 is --seed
/// itself, the others are derived from it. The median then spans several
/// fault/noise streams, and every repeat of a slot must reproduce the
/// slot's first campaign byte for byte.
constexpr index_t kSeedSlots = 3;
/// Calls per place / correction / execute probe.
constexpr index_t kProbeCalls = 200;

struct CampaignSpec {
  std::vector<std::string> geometries;
  index_t jobs = 0;
  index_t workers = 3;  ///< plus the coordinator: four busy threads
  bool mixed = false;
};

// campaign-burst: the CLI's own seeded campaign scaled up; the
// coordinator's placement pass dominates and no LBM work runs.
// campaign-mixed: three geometries, refined resolutions, deadlines,
// budgets and injected faults; time goes to attempts, requeues and the
// keyed per-(geometry, resolution) tracker.
CampaignSpec spec_for(const Options& options) {
  CampaignSpec spec;
  spec.mixed = options.workload == "campaign-mixed";
  spec.geometries = spec.mixed
                        ? std::vector<std::string>{"cylinder", "aorta",
                                                   "cerebral"}
                        : std::vector<std::string>{"cylinder"};
  spec.jobs = options.smoke ? 30 : spec.mixed ? 240 : 600;
  return spec;
}

geometry::Geometry named_geometry(const std::string& name) {
  if (name == "cylinder") {
    return geometry::make_cylinder({.radius = 10, .length = 80});
  }
  if (name == "aorta") return geometry::make_aorta({});
  return geometry::make_cerebral({.depth = 5});
}

std::vector<sched::CampaignJobSpec> make_jobs(const CampaignSpec& spec) {
  std::vector<sched::CampaignJobSpec> jobs;
  for (index_t i = 0; i < spec.jobs; ++i) {
    sched::CampaignJobSpec job;
    job.id = i + 1;
    if (!spec.mixed) {
      job.geometry = "cylinder";
      job.timesteps = 20000;
      job.allow_spot = i % 3 == 1;
    } else {
      job.geometry = spec.geometries[static_cast<std::size_t>(i % 3)];
      job.resolution_factor = i % 4 == 3 ? 8.0 : 1.0;
      job.timesteps = 20000 + 5000 * (i % 5);
      job.allow_spot = i % 2 == 1;
      if (i % 5 == 0) job.deadline_s = units::Seconds{600.0};
      if (i % 7 == 0) job.budget_dollars = units::Dollars{0.01};
    }
    jobs.push_back(job);
  }
  return jobs;
}

std::uint64_t slot_seed(std::uint64_t seed, index_t slot) {
  return slot == 0 ? seed
                   : hash_seed(seed, static_cast<std::uint64_t>(slot));
}

sched::EngineConfig engine_config(const CampaignSpec& spec,
                                  std::uint64_t seed) {
  sched::EngineConfig config;
  config.n_workers = spec.workers;
  config.seed = seed;
  if (spec.mixed) {
    config.chunks_per_attempt = 2000;
    config.faults.extra_preemption_probability = 1e-4;
    config.faults.checkpoint_corruption_rate = 0.2;
    config.faults.worker_crash_probability = 5e-5;
  }
  return config;
}

/// Host speed along the campaign's blocking path: the coordinator's own
/// placement arithmetic in campaign-burst; in campaign-mixed, the hand-off
/// of each attempt to the worker pool and the wait for its result.
double blocking_path_speed(const CampaignSpec& spec) {
  return spec.mixed ? handoff_speed(spec.workers) : host_speed(1, 5);
}

struct SetupTimes {
  double ctor = 0.0, geometry = 0.0, reg = 0.0, total = 0.0;
  double speed = 1.0;  ///< host speed measured just before
};

std::unique_ptr<sched::CampaignScheduler> set_up(const CampaignSpec& spec,
                                                 Tracer& tracer,
                                                 SetupTimes& times) {
  Tracer::Span total(tracer, "setup");
  std::unique_ptr<sched::CampaignScheduler> scheduler;
  {
    Tracer::Span span(tracer, "sched.ctor");
    std::vector<const cluster::InstanceProfile*> profiles;
    for (const auto& p : cluster::default_catalog()) {
      if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
    }
    sched::SchedulerConfig config;
    config.objective = core::Objective::kMinCost;
    config.core_counts = {16, 36, 72, 144};
    scheduler = std::make_unique<sched::CampaignScheduler>(
        std::move(profiles), config);
    times.ctor = span.close();
  }
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  for (const std::string& name : spec.geometries) {
    std::optional<geometry::Geometry> geo;
    {
      Tracer::Span span(tracer, "geometry.build");
      geo = named_geometry(name);
      times.geometry += span.close();
    }
    Tracer::Span span(tracer, "sched.register");
    scheduler->register_workload(name, std::move(*geo), cal_counts);
    times.reg += span.close();
  }
  times.total = total.close();
  return scheduler;
}

/// Profiler samples of the coordinator's phases and the workers' attempts,
/// against the sampler's tick count (idle threads are not sampled).
struct PhaseSamples {
  double ticks = 0, place = 0, await = 0, settle = 0, attempt = 0;

  /// Adds one folded profile (`label;phase;... count` lines).
  void add(const std::string& folded, double profile_ticks) {
    ticks += profile_ticks;
    std::istringstream in(folded);
    std::string line;
    while (std::getline(in, line)) {
      const auto space = line.rfind(' ');
      if (space == std::string::npos) continue;
      const std::string stack = line.substr(0, space);
      const double count = std::stod(line.substr(space + 1));
      if (stack == "coordinator;place") place += count;
      if (stack == "coordinator;await") await += count;
      if (stack == "coordinator;settle") settle += count;
      if (stack.rfind("worker", 0) == 0 &&
          stack.find(";attempt") != std::string::npos) {
        attempt += count;
      }
    }
  }
};

/// sched_place_total by outcome, summed over the traced campaigns.
struct PlaceCounts {
  double placed = 0, all = 0;

  void add(const obs::MetricsRegistry& registry) {
    for (const obs::MetricSnapshot& snap : registry.snapshot()) {
      if (snap.name != "sched_place_total") continue;
      all += snap.value;
      for (const auto& [key, value] : snap.labels) {
        if (key == "outcome" && value == "placed") placed += snap.value;
      }
    }
  }
};

/// One campaign and its output checks.
struct CampaignRun {
  sched::CampaignReport report;
  sched::ProtocolHistory history;
  std::string csv;
  double wall_s = 0.0;
};

CampaignRun run_one(sched::CampaignScheduler& scheduler,
                    const CampaignSpec& spec,
                    const std::vector<sched::CampaignJobSpec>& jobs,
                    std::uint64_t seed, Tracer& tracer) {
  CampaignRun run;
  sched::EngineConfig config = engine_config(spec, seed);
  config.history = &run.history;
  sched::CampaignEngine engine(scheduler, config);
  Tracer::Span span(tracer, "sched.campaign");
  run.report = engine.run(jobs);
  run.wall_s = span.close();
  run.csv = run.report.to_csv();
  return run;
}

/// E1, S1, K1, C1, T1, A1 and R1 (against the report) over the history.
nemesis::CheckResult check_run(const CampaignRun& run,
                               const std::vector<sched::CampaignJobSpec>& jobs,
                               const CampaignSpec& spec, std::uint64_t seed) {
  nemesis::CheckLimits limits;
  limits.max_attempts = engine_config(spec, seed).max_attempts;
  return nemesis::check_history(run.history, jobs, limits, &run.report);
}

/// A campaign must repeat the CSV report and canonical history of the
/// run's first campaign with the same seed byte for byte (same worker
/// count: W1 at one count).
bool identical(const CampaignRun& run, const std::string& csv,
               const std::string& history) {
  return run.csv == csv && run.history.canonical() == history;
}

/// Per-call times of `call`, in microseconds.
template <typename F>
std::vector<double> time_calls(index_t n, F&& call) {
  std::vector<double> us;
  for (index_t i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    call(i);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return us;
}

/// Place, tracker-correction and virtual-cluster execute probes on the
/// end-of-campaign state, with telemetry off as in production.
void probes(const sched::CampaignScheduler& scheduler,
            const CampaignRun& last,
            const std::vector<sched::CampaignJobSpec>& jobs,
            const sched::EngineConfig& engine, Tracer& tracer,
            Result& result) {
  const auto n = static_cast<index_t>(jobs.size());
  {
    Tracer::Span span(tracer, "sched.place_probe");
    const std::vector<double> us = time_calls(kProbeCalls, [&](index_t i) {
      const sched::CampaignJobSpec& job = jobs[static_cast<std::size_t>(i % n)];
      sched::PlacementRequest request;
      request.spec = &job;
      request.remaining_steps = job.timesteps;
      request.remaining_deadline_s = job.deadline_s;
      request.remaining_budget = job.budget_dollars;
      (void)scheduler.place(request);
    });
    result.metric("sched.place_rate", 1e6 / quantile(us, 0.5), "1/s");
    result.metric("sched.place_p95_ratio",
                  quantile(us, 0.95) / quantile(us, 0.5), "ratio");
  }
  {
    Tracer::Span span(tracer, "core.correction_probe");
    const std::vector<double> us = time_calls(kProbeCalls, [&](index_t) {
      (void)scheduler.tracker().correction_factor();
    });
    result.metric("core.correction_rate", 1e6 / median(us), "1/s");
    result.metric("core.tracker_obs",
                  static_cast<double>(scheduler.tracker().size()), "count");
  }
  {
    Tracer::Span span(tracer, "cluster.execute_probe");
    std::vector<const sched::JobReportRow*> rows;
    for (const sched::JobReportRow& row : last.report.jobs) {
      if (!row.instance.empty() && row.n_tasks > 0) rows.push_back(&row);
    }
    const index_t steps = std::max<index_t>(
        1, jobs.front().timesteps / engine.chunks_per_attempt);
    std::vector<double> us;
    if (!rows.empty()) {
      us = time_calls(kProbeCalls, [&](index_t i) {
        const sched::JobReportRow& row =
            *rows[static_cast<std::size_t>(i) % rows.size()];
        const cluster::VirtualCluster vc(scheduler.profile_for(row.instance));
        const cluster::MeasurementContext when{i % 7, i % 24, i};
        (void)vc.execute(
            scheduler.plan_for(row.geometry, row.instance, row.n_tasks),
            steps, when);
      });
    }
    result.metric("cluster.execute_rate", 1e6 / median(us), "1/s");
  }
}

/// Deterministic outputs of a campaign: the same seed must give the same
/// values on every run, round and commit.
void campaign_outputs(const CampaignRun& run, Result& result) {
  const sched::CampaignReport& r = run.report;
  result.output("csv_digest", digest_hex(run.csv.data(), run.csv.size()));
  const std::string canonical = run.history.canonical();
  result.output("history_digest",
                digest_hex(canonical.data(), canonical.size()));
  result.output("jobs", std::to_string(r.n_jobs));
  result.output("completed", std::to_string(r.n_completed));
  result.output("failed_jobs", std::to_string(r.n_failed));
  result.output("requeues", std::to_string(r.total_requeues));
  result.output("events", std::to_string(run.history.events.size()));
  result.output("campaign_usd", fmt(r.total_dollars.value(), 17));
  result.output("makespan_s", fmt(r.makespan_s.value(), 17));
}

/// Campaign outcome metrics (per-layer; deterministic for a seed).
void outcome_metrics(const CampaignRun& run, Result& result) {
  const sched::CampaignReport& r = run.report;
  const auto jobs = static_cast<double>(r.n_jobs);
  result.metric("sched.job_failed_share", static_cast<double>(r.n_failed) / jobs,
                "fraction");
  result.metric("sched.requeue_share",
                static_cast<double>(r.total_requeues) / jobs, "fraction");
  result.metric("sched.events_per_job",
                static_cast<double>(run.history.events.size()) / jobs,
                "count");
  result.metric("core.early_err", r.early_error, "fraction");
  result.metric("core.late_err", r.late_error, "fraction");
}

}  // namespace

bool is_campaign_workload(const std::string& name) {
  return name == "campaign-burst" || name == "campaign-mixed";
}

void run_campaign(const Options& options, Result& result) {
  const CampaignSpec spec = spec_for(options);
  const std::vector<sched::CampaignJobSpec> jobs = make_jobs(spec);
  result.threads = 1 + spec.workers;
  Tracer tracer(options.trace);
  Tracer quiet(false);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::PhaseProfiler& profiler = obs::PhaseProfiler::global();
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();

  /// One timed CampaignEngine::run and the host speed around it.
  struct Timed {
    double wall_s = 0.0;
    double speed = 1.0;
  };
  std::vector<SetupTimes> setups;
  std::vector<Timed> plain, traced_runs;
  std::unique_ptr<sched::CampaignScheduler> scheduler;
  std::map<index_t, CampaignRun> first_of_slot;
  CampaignRun last;
  PhaseSamples phases;
  PlaceCounts place_counts;
  double rss = 0.0;
  index_t h1_failures = 0;

  // Untraced campaigns (the whole run at --trace 0, its first half
  // otherwise), then the traced ones.
  // Every run repeats at least one seed slot.
  const double loop_s = options.trace ? options.seconds / 2 : options.seconds;
  const std::size_t min_campaigns =
      options.trace ? 2 : static_cast<std::size_t>(kSeedSlots) + 1;
  for (const bool traced : {false, true}) {
    if (traced && !options.trace) break;
    Tracer& spans = traced ? tracer : quiet;
    std::vector<Timed>& timed = traced ? traced_runs : plain;
    const Clock::time_point start = Clock::now();
    while (timed.size() < min_campaigns || seconds_since(start) < loop_s) {
      const index_t slot = result.attempted % kSeedSlots;
      const std::uint64_t seed = slot_seed(options.seed, slot);
      scheduler.reset();  // free the previous campaign outside set-up timing
      release_free_memory();
      SetupTimes times;
      times.speed = host_speed(1, 5);
      scheduler = set_up(spec, spans, times);
      setups.push_back(times);
      const double speed_before = blocking_path_speed(spec);

      if (traced) {
        registry.reset();
        registry.enable(true);
        recorder.reset();
        recorder.enable(true);
        profiler.reset();
        profiler.start();
      }
      last = run_one(*scheduler, spec, jobs, seed, spans);
      if (traced) {
        profiler.stop();
        profiler.enable(false);
        registry.enable(false);
        recorder.enable(false);
        phases.add(profiler.folded(),
                   static_cast<double>(profiler.sample_count()));
        place_counts.add(registry);
        const nemesis::CheckResult h1 =
            nemesis::check_trace_consistency(last.history, recorder);
        if (!h1.passed()) ++h1_failures;
      }
      timed.push_back(
          Timed{last.wall_s, (speed_before + blocking_path_speed(spec)) / 2});
      rss = resident_mib();

      ++result.attempted;
      const nemesis::CheckResult check = check_run(last, jobs, spec, seed);
      const auto [first, inserted] = first_of_slot.try_emplace(slot, last);
      const bool same =
          inserted || identical(last, first->second.csv,
                                first->second.history.canonical());
      if (!check.passed() || !same) {
        ++result.failed;
        std::cerr << "campaign " << result.attempted << ": "
                  << (same ? "" : "output differs from the slot's first "
                                  "campaign; ")
                  << check.summary() << "\n";
      }
    }
  }
  result.check("history_invariants_and_identical_outputs",
               result.failed == 0,
               std::to_string(result.failed) + " of " +
                   std::to_string(result.attempted) +
                   " campaigns failed check_history (E1 S1 K1 C1 T1 A1 R1) "
                   "or differed from the CSV/history of the first campaign "
                   "with the same seed");
  if (options.trace) {
    result.check("history_matches_trace", h1_failures == 0,
                 std::to_string(h1_failures) + " traced campaigns failed H1");
  }
  const CampaignRun& slot0 = first_of_slot.at(0);
  campaign_outputs(slot0, result);

  // Terminal jobs per second of each campaign (wall clock), and the median
  // over the campaigns of each rate divided by the host speed around it.
  const auto rates = [&](const std::vector<Timed>& runs) {
    std::vector<double> out;
    for (const Timed& t : runs) {
      out.push_back(static_cast<double>(jobs.size()) / t.wall_s);
    }
    return out;
  };
  const auto normalized_rate = [&](const std::vector<Timed>& runs) {
    std::vector<double> out = rates(runs);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] /= runs[i].speed;
    return median(out);
  };
  const double throughput = normalized_rate(plain);
  std::vector<double> wall, normalized, setup_speeds, speeds;
  for (const SetupTimes& s : setups) {
    wall.push_back(s.total);
    normalized.push_back(s.total * s.speed);
    setup_speeds.push_back(s.speed);
  }
  for (const Timed& t : plain) speeds.push_back(t.speed);
  const double setup_s = median(normalized);
  // The set-up closest to the median supplies the layer split, so the
  // layers add up to the set-up time they are reported with.
  const SetupTimes mid = *std::min_element(
      setups.begin(), setups.end(), [&](const SetupTimes& a,
                                        const SetupTimes& b) {
        return std::abs(a.total * a.speed - setup_s) <
               std::abs(b.total * b.speed - setup_s);
      });
  const double setup_rest = mid.total - mid.ctor - mid.geometry - mid.reg;
  result.layer_sum("setup " + fmt(mid.total) + " s wall = scheduler ctor " +
                   fmt(mid.ctor) + " + geometry " + fmt(mid.geometry) +
                   " + register " + fmt(mid.reg) + " + unattributed " +
                   fmt(setup_rest));
  result.samples("wall_throughput", rates(plain));
  result.samples("wall_setup_s", wall);
  result.samples("host_speed", speeds);
  result.samples("setup_host_speed", setup_speeds);

  if (!options.trace) {
    result.metric("throughput", throughput, "1/s");
    result.metric("setup_s", setup_s, "s");
    result.metric("rss_mb", rss, "MiB");
    return;
  }

  result.metric("host.speed", median(speeds), "ratio");

  result.metric("geometry.build_share", mid.geometry / mid.total, "fraction");
  result.metric("sched.ctor_share", mid.ctor / mid.total, "fraction");
  result.metric("sched.register_share", mid.reg / mid.total, "fraction");
  result.metric("bench.setup_unattributed_share", setup_rest / mid.total,
                "fraction");
  result.metric("bench.trace_overhead",
                throughput / normalized_rate(traced_runs) - 1.0,
                "fraction");

  const double ticks = std::max(phases.ticks, 1.0);
  const double rest = ticks - phases.place - phases.await - phases.settle;
  result.metric("sched.coord_place_share", phases.place / ticks, "fraction");
  result.metric("sched.coord_await_share", phases.await / ticks, "fraction");
  result.metric("sched.coord_settle_share", phases.settle / ticks, "fraction");
  result.metric("sched.unattributed_share", rest / ticks, "fraction");
  result.metric("sched.worker_busy_share",
                phases.attempt / (ticks * static_cast<double>(spec.workers)),
                "fraction");
  result.metric("sched.profile_samples", phases.ticks, "count");
  std::vector<double> traced_walls;
  for (const Timed& t : traced_runs) traced_walls.push_back(t.wall_s);
  const double campaign_wall = median(traced_walls);
  result.layer_sum("campaign wall " + fmt(campaign_wall) + " s = place " +
                   fmt(campaign_wall * phases.place / ticks) + " + await " +
                   fmt(campaign_wall * phases.await / ticks) + " + settle " +
                   fmt(campaign_wall * phases.settle / ticks) + " + unattributed " +
                   fmt(campaign_wall * rest / ticks) + " (profiler ticks, n = " +
                   fmt(phases.ticks, 8) + ")");

  const auto traced_jobs =
      static_cast<double>(jobs.size() * traced_runs.size());
  result.metric("sched.place_calls_per_job", place_counts.all / traced_jobs,
                "count");
  result.metric("sched.place_useful_share",
                place_counts.all > 0 ? place_counts.placed / place_counts.all
                                     : 0.0,
                "fraction");
  outcome_metrics(slot0, result);
  probes(*scheduler, last, jobs, engine_config(spec, options.seed), tracer,
         result);

  const std::string trace_path =
      options.out_dir + "/trace-" + options.workload + ".json";
  tracer.write_chrome_json(trace_path);
  result.output("trace_file", trace_path);
}

void self_test_campaign(Result& result) {
  Options options;
  options.workload = "campaign-mixed";
  options.smoke = true;
  const CampaignSpec spec = spec_for(options);
  const std::vector<sched::CampaignJobSpec> jobs = make_jobs(spec);
  Tracer quiet(false);
  SetupTimes times;
  const auto scheduler = set_up(spec, quiet, times);
  const CampaignRun run = run_one(*scheduler, spec, jobs, 7, quiet);
  ++result.attempted;

  const nemesis::CheckResult clean = check_run(run, jobs, spec, 7);
  result.check("check_history passes the recorded history", clean.passed(),
               std::to_string(clean.events_checked) + " events");

  // Charge one settled attempt a cent more than the job's running total
  // says: cost conservation (C1) and the report projection (R1) break.
  CampaignRun mutated = run;
  auto it = std::find_if(
      mutated.history.events.begin(), mutated.history.events.end(),
      [](const sched::ProtocolEvent& e) {
        return e.kind == sched::ProtocolEventKind::kCompleted;
      });
  const bool found = it != mutated.history.events.end();
  if (found) it->delta_usd = it->delta_usd + units::Dollars{0.01};
  const nemesis::CheckResult bad = check_run(mutated, jobs, spec, 7);
  result.check("check_history fails on one mutated event",
               found && !bad.passed(),
               bad.violations.empty() ? "no violation"
                                      : bad.violations.front().str());

  const std::string history = run.history.canonical();
  result.check("identity check passes a repeat of the campaign",
               identical(run, run.csv, history), "");
  CampaignRun changed = run;
  char& byte = changed.csv[changed.csv.size() / 2];
  byte = byte == '0' ? '1' : '0';
  result.check("identity check fails on one changed CSV byte",
               !identical(changed, run.csv, history), "");
}

}  // namespace e2e
