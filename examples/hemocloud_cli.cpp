// hemocloud — command-line front end to the framework. Its one grammar is
// the command table, commands(): parse() reads every argument against it
// and usage() prints it (run `hemocloud_cli` with no arguments).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "check/mutation.hpp"
#include "check/oracles.hpp"
#include "nemesis/harness.hpp"
#include "core/dashboard.hpp"
#include "decomp/partition.hpp"
#include "harvey/simulation.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/io.hpp"
#include "lbm/simd.hpp"
#include "microbench/stream.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/server.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "runtime/parallel_solver.hpp"
#include "runtime/validation.hpp"
#include "sched/executor.hpp"
#include "util/table.hpp"

namespace {

using namespace hemo;

/// What an argument must read as. kChoice is one of the '|'-separated words
/// of its metavar; kSwitch is a flag that takes no value.
enum class Kind { kText, kCount, kSeed, kReal, kPort, kChoice, kSwitch };

/// A positional argument ("geometry") or a flag ("--ranks"). `fallback` is
/// read when it is absent: a positional without one is required, and ""
/// leaves it absent (empty text, no port, or the HEMO_SEED seed).
struct Param {
  std::string_view name;
  Kind kind = Kind::kText;
  const char* fallback = nullptr;
  std::string_view metavar = {};  // a flag's value in usage; kChoice's words

  bool flag() const { return name.starts_with("--"); }
  bool required() const { return fallback == nullptr && !flag(); }
  bool defaulted() const { return fallback && *fallback; }
};

/// A parsed command line. parse() checked every value against its kind, so
/// the typed reads cannot fail.
struct Args {
  std::map<std::string_view, const char*> values;

  bool has(std::string_view name) const { return values.contains(name); }
  std::string text(std::string_view name) const {
    return has(name) ? values.at(name) : "";
  }
  template <typename T>
  T number(std::string_view name) const {
    return *read_number<T>(values.at(name));
  }
  std::uint64_t seed(std::string_view name) const {
    return has(name) ? *read_seed(values.at(name)) : global_seed();
  }
};

harvey::Simulation make_sim(const std::string& geometry_name) {
  return harvey::Simulation(geometry::make_named(geometry_name), {});
}

int cmd_instances(const Args& /*args*/) {
  TextTable t;
  t.set_header({"Abbrev", "Name", "Cores/node", "Total cores",
                "Interconnect (Gb/s)", "$/node-hr", "GPUs/node"});
  for (const auto& p : cluster::default_catalog()) {
    t.add_row({p.abbrev, p.name, TextTable::num(p.cores_per_node),
               TextTable::num(p.total_cores),
               TextTable::num(p.interconnect.value(), 0),
               TextTable::num(p.price_per_node_hour.value(), 2),
               p.gpu ? TextTable::num(p.gpu->gpus_per_node) : "-"});
  }
  t.print(std::cout);
  return 0;
}

int cmd_calibrate(const Args& args) {
  const auto& profile = cluster::instance_by_abbrev(args.text("instance"));
  HEMO_LOG_INFO("calibrating %s ...", profile.name.c_str());
  const auto cal = core::calibrate_instance(profile);
  TextTable t;
  t.set_header({"Parameter", "Value", "Units"});
  t.add_row({"a1 (memory, per-core regime)", TextTable::num(cal.memory.a1, 2),
             "MB/s/thread"});
  t.add_row({"a2 (memory, saturated)", TextTable::num(cal.memory.a2, 2),
             "MB/s/thread"});
  t.add_row({"a3 (saturation knee)", TextTable::num(cal.memory.a3, 2),
             "threads"});
  t.add_row({"b internodal", TextTable::num(cal.inter.bandwidth, 2), "MB/s"});
  t.add_row({"l internodal", TextTable::num(cal.inter.latency, 2), "us"});
  t.add_row({"b intranodal", TextTable::num(cal.intra.bandwidth, 2), "MB/s"});
  t.add_row({"l intranodal", TextTable::num(cal.intra.latency, 2), "us"});
  if (cal.gpu_bandwidth) {
    t.add_row({"GPU device bandwidth",
               TextTable::num(cal.gpu_bandwidth->value(), 0), "MB/s"});
    t.add_row({"PCIe bandwidth", TextTable::num(cal.gpu_pcie->bandwidth, 0),
               "MB/s"});
    t.add_row({"PCIe latency", TextTable::num(cal.gpu_pcie->latency, 2),
               "us"});
  }
  t.print(std::cout);
  return 0;
}

int cmd_predict(const Args& args) {
  const auto& profile = cluster::instance_by_abbrev(args.text("instance"));
  auto sim = make_sim(args.text("geometry"));
  const index_t ranks = args.number<index_t>("ranks");
  const auto cal = core::calibrate_instance(profile);
  const auto pred = core::predict_direct(
      sim.plan(ranks, profile.cores_per_node), cal);
  const auto meas = sim.measure(profile, ranks, 200);
  TextTable t;
  t.set_header({"Quantity", "Model", "Measured"});
  t.add_row({"MFLUPS", TextTable::num(pred.mflups.value(), 2),
             TextTable::num(meas.mflups.value(), 2)});
  t.add_row({"step time (us)",
             TextTable::num(pred.step_seconds.value() * 1e6, 1),
             TextTable::num(meas.step_seconds.value() * 1e6, 1)});
  t.add_row({"memory term (us)",
             TextTable::num(pred.t_mem.value() * 1e6, 1),
             TextTable::num(meas.critical.mem_s.value() * 1e6, 1)});
  t.add_row(
      {"comm term (us)", TextTable::num(pred.t_comm.value() * 1e6, 1),
       TextTable::num(
           (meas.critical.intra_s + meas.critical.inter_s).value() * 1e6,
           1)});
  t.print(std::cout);
  return 0;
}

int cmd_dashboard(const Args& args) {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  core::Dashboard dashboard(std::move(profiles));
  auto sim = make_sim(args.text("geometry"));
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  const auto workload = core::calibrate_workload(sim, cal_counts, 36);
  const std::vector<index_t> cores = {16, 36, 72, 144};
  const auto rows = dashboard.evaluate(
      workload, core::JobSpec{args.number<index_t>("timesteps")}, cores);

  TextTable t;
  t.set_header({"instance", "cores", "mflups", "time_h", "cost_usd",
                "mflups_per_usd_hr"});
  for (const auto& row : rows) {
    t.add_row({row.instance, TextTable::num(row.n_tasks),
               TextTable::num(row.prediction.mflups.value(), 1),
               TextTable::num(row.time_to_solution_s.value() / 3600.0, 3),
               TextTable::num(row.total_dollars.value(), 2),
               TextTable::num(row.mflups_per_dollar_hour.value(), 1)});
  }
  t.print(std::cout);

  const auto fastest =
      core::Dashboard::recommend(rows, core::Objective::kMaxThroughput);
  const auto cheapest =
      core::Dashboard::recommend(rows, core::Objective::kMinCost);
  std::cout << "\nfastest: " << fastest->instance << " @ "
            << fastest->n_tasks << " cores; cheapest: "
            << cheapest->instance << " @ " << cheapest->n_tasks
            << " cores ($"
            << TextTable::num(cheapest->total_dollars.value(), 2)
            << ")\n";
  return 0;
}

int cmd_simulate(const Args& args) {
  const std::string geometry_name = args.text("geometry");
  const index_t steps = args.number<index_t>("steps");
  const std::string vtk_path = args.text("out.vtk");
  auto sim = make_sim(geometry_name);
  std::cout << geometry_name << ": " << sim.mesh().num_points()
            << " fluid points\n";
  auto& solver = sim.solver();
  real_t seconds = 0.0;
  {
    const obs::Phase phase("simulate", &seconds);
    solver.run(steps);
  }
  std::cout << steps << " steps in " << TextTable::num(seconds, 2)
            << " s = "
            << TextTable::num(
                   lbm::mflups(sim.mesh().num_points(), steps, seconds), 2)
            << " MFLUPS (local host)\n"
            << "mean flow speed: " << TextTable::num(solver.mean_speed(), 5)
            << " lattice units\n";
  if (!vtk_path.empty()) {
    lbm::write_vtk_file(solver, vtk_path);
    std::cout << "flow field written to " << vtk_path << "\n";
  }
  return 0;
}

/// Records which SIMD backend this host resolves for the LBM hot path as
/// a gauge (value = double-precision vector lanes, label = backend name),
/// so exported metrics identify the kernel flavor behind every timing.
void record_simd_backend_gauge(obs::MetricsRegistry& registry) {
  const lbm::Backend backend =
      lbm::simd::resolve_backend(lbm::Backend::kAuto);
  registry.set("lbm_simd_lanes",
               static_cast<real_t>(
                   lbm::simd::lanes(backend, sizeof(double))),
               {{"backend", lbm::to_string(backend)}});
}

int cmd_kernels(const Args& args) {
  const std::string geometry_name = args.text("geometry");
  const auto print_backends = [](const char* label,
                                 const std::vector<lbm::Backend>& list) {
    std::cout << label << ":";
    for (const lbm::Backend b : list) std::cout << " " << lbm::to_string(b);
    std::cout << "\n";
  };
  print_backends("compiled", lbm::simd::compiled_backends());
  print_backends("detected", lbm::simd::detected_backends());
  const lbm::Backend selected =
      lbm::simd::resolve_backend(lbm::Backend::kAuto);
  std::cout << "selected: " << lbm::to_string(selected) << " ("
            << lbm::simd::lanes(selected, sizeof(float)) << "x float, "
            << lbm::simd::lanes(selected, sizeof(double))
            << "x double; override with KernelConfig::backend)\n";

  const auto geo = geometry::make_named(geometry_name);
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  std::cout << "\n" << geometry_name << ": " << mesh.num_points()
            << " fluid points; measuring STREAM COPY ...\n";
  const real_t copy_mbs = microbench::run_stream_local(1 << 22, 3, 1).copy;
  std::cout << "stream copy (1 thread): " << TextTable::num(copy_mbs, 0)
            << " MB/s\n\n";

  // Roofline inputs per kernel variant: Eq. 10 byte traffic per fluid
  // point and the bandwidth-implied MFLUPS ceiling it buys.
  TextTable t;
  t.set_header({"kernel", "precision", "bytes/FLUP", "MFLUPS bound"});
  for (const auto prop : {lbm::Propagation::kAB, lbm::Propagation::kAA}) {
    for (const auto layout : {lbm::Layout::kAoS, lbm::Layout::kSoA}) {
      for (const auto precision :
           {lbm::Precision::kDouble, lbm::Precision::kSingle}) {
        lbm::KernelConfig config;
        config.layout = layout;
        config.propagation = prop;
        config.precision = precision;
        const real_t bytes_per_flup =
            lbm::serial_bytes_per_step(mesh, config) /
            static_cast<real_t>(mesh.num_points());
        t.add_row({lbm::kernel_name(config), lbm::to_string(precision),
                   TextTable::num(bytes_per_flup, 1),
                   TextTable::num(copy_mbs / bytes_per_flup, 1)});
      }
    }
  }
  t.print(std::cout);
  return 0;
}

int cmd_run(const Args& args) {
  const std::string geometry_name = args.text("geometry");
  const index_t steps = args.number<index_t>("steps");
  const index_t ranks = args.number<index_t>("--ranks");
  const bool rebalance = args.has("--rebalance");
  const std::string profile_path = args.text("--profile");
  HEMO_REQUIRE(steps > 0, "need at least one step");
  HEMO_REQUIRE(ranks >= 1, "need at least one rank");
  const auto geo = geometry::make_named(geometry_name);
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const lbm::SolverParams params{};
  const auto part =
      decomp::make_partition(mesh, ranks, decomp::Strategy::kRcb);

  runtime::RuntimeOptions options;
  options.workload = geometry_name;
  options.rebalance.enabled = rebalance;
  runtime::ParallelSolver solver(mesh, part, params,
                                 std::span(geo.inlets), options);
  std::cout << geometry_name << ": " << mesh.num_points()
            << " fluid points on " << ranks << " rank"
            << (ranks == 1 ? "" : "s")
            << (rebalance ? " (dynamic rebalancing on)" : "") << "\n";

  obs::PhaseProfiler& profiler = obs::PhaseProfiler::global();
  if (!profile_path.empty()) profiler.start();

  real_t seconds = 0.0;
  {
    const obs::Phase phase("run", &seconds);
    solver.run(steps);
  }

  if (!profile_path.empty()) {
    profiler.stop();
    profiler.write_folded(profile_path);
    const real_t sampled_s =
        static_cast<real_t>(profiler.sample_count()) *
        profiler.period_seconds();
    HEMO_LOG_INFO("profile written to %s (%llu samples over %.3f s; "
                  "render with flamegraph.pl or speedscope)",
                  profile_path.c_str(),
                  static_cast<unsigned long long>(profiler.sample_count()),
                  sampled_s);
  }

  std::cout << steps << " steps in " << TextTable::num(seconds, 2)
            << " s = "
            << TextTable::num(lbm::mflups(mesh.num_points(), steps, seconds),
                              2)
            << " MFLUPS";
  if (rebalance) {
    std::cout << "; " << solver.rebalance_count() << " migration"
              << (solver.rebalance_count() == 1 ? "" : "s");
  }
  std::cout << "\n";

  // Close the measurement->model loop on this host: STREAM + PingPong
  // characterization feeds the direct-model predictions the per-rank
  // wall-clock timings are compared against. Validate against the final
  // partition — it is what the measured timings ran on last.
  HEMO_LOG_INFO("characterizing host (STREAM + PingPong) ...");
  const auto host = runtime::LocalHostModel::measure();
  obs::MetricsRegistry registry;
  registry.enable(true);
  record_simd_backend_gauge(registry);
  const auto report =
      runtime::validate_run(mesh, solver.partition(), params.kernel, host,
                            solver.timings(), geometry_name, registry);

  TextTable t;
  t.set_header({"rank", "points", "t_mem meas (us)", "t_mem model (us)",
                "t_comm meas (us)", "t_comm model (us)", "step err"});
  for (std::size_t r = 0; r < report.ranks.size(); ++r) {
    const auto& v = report.ranks[r];
    t.add_row(
        {TextTable::num(static_cast<index_t>(r)),
         TextTable::num(
             static_cast<index_t>(solver.partition().points_of[r].size())),
         TextTable::num(v.measured_mem_s * 1e6, 1),
         TextTable::num(v.predicted.t_mem.value() * 1e6, 1),
         TextTable::num(v.measured_comm_s * 1e6, 1),
         TextTable::num(v.predicted.t_comm().value() * 1e6, 1),
         TextTable::num(v.step_rel_error * 100.0, 1) + "%"});
  }
  t.print(std::cout);
  std::cout << "step time: measured "
            << TextTable::num(report.measured_step_s * 1e6, 1)
            << " us, model "
            << TextTable::num(report.predicted_step_s * 1e6, 1)
            << " us; MFLUPS: measured "
            << TextTable::num(report.measured_mflups, 2) << ", model "
            << TextTable::num(report.predicted_mflups, 2) << "\n";
  return 0;
}

/// The live telemetry plane of one CLI invocation: metrics registry and
/// fault flight recorder armed, SLO watchdog evaluating on a cadence, and
/// the HTTP server up on 127.0.0.1. When the watchdog first turns
/// unhealthy the flight recorder dumps to flight-recorder-dump.txt (the
/// artifact CI uploads).
class LivePlane {
 public:
  explicit LivePlane(std::uint16_t port)
      : watchdog_(obs::MetricsRegistry::global()),
        server_(obs::MetricsRegistry::global(),
                obs::ServerOptions{.host = "127.0.0.1", .port = port}) {
    obs::MetricsRegistry::global().enable(true);
    obs::FlightRecorder::global().enable(true);
    watchdog_.on_unhealthy([] {
      obs::FlightRecorder& recorder = obs::FlightRecorder::global();
      recorder.note("watchdog", "health entered unhealthy");
      recorder.dump_to_file("flight-recorder-dump.txt");
      HEMO_LOG_ERROR(
          "watchdog unhealthy: flight recorder dumped to "
          "flight-recorder-dump.txt");
    });
    server_.set_watchdog(&watchdog_);
    server_.start();
    watchdog_.start(0.5);
  }

  ~LivePlane() {
    watchdog_.stop();
    server_.stop();
  }

  /// Keeps serving: `seconds` < 0 means until the process is killed.
  void hold(real_t seconds) const {
    if (seconds < 0.0) {
      HEMO_LOG_INFO("serving on port %u until killed (ctrl-c to stop)",
                    static_cast<unsigned>(server_.port()));
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    std::this_thread::sleep_for(std::chrono::duration<real_t>(seconds));
  }

 private:
  obs::Watchdog watchdog_;
  obs::TelemetryServer server_;
};

int cmd_schedule(const Args& args) {
  const std::string geometry_name = args.text("geometry");
  const std::string trace_path = args.text("--trace");
  const std::string metrics_path = args.text("--metrics");
  // Telemetry is opt-in per invocation: enabling costs locks and
  // allocations on every instrumented path, and the default run must
  // keep the golden --csv bytes and bench numbers untouched.
  if (!trace_path.empty()) obs::TraceRecorder::global().enable(true);
  if (!metrics_path.empty()) obs::MetricsRegistry::global().enable(true);
  record_simd_backend_gauge(obs::MetricsRegistry::global());
  std::unique_ptr<LivePlane> plane;
  if (args.has("--listen")) {
    plane = std::make_unique<LivePlane>(args.number<std::uint16_t>("--listen"));
  }

  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  sched::SchedulerConfig config;
  config.objective = core::Objective::kMinCost;
  config.core_counts = {16, 36, 72, 144};
  sched::CampaignScheduler scheduler(std::move(profiles), config);
  auto geometry = geometry::make_named(geometry_name);
  // Progress goes to stderr (via the logger) so --csv output stays clean
  // for golden files.
  HEMO_LOG_INFO("calibrating %s (phase 1 + pilots) ...",
                geometry_name.c_str());
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  scheduler.register_workload(geometry_name, std::move(geometry), cal_counts);

  std::vector<sched::CampaignJobSpec> jobs;
  const index_t n_jobs = args.number<index_t>("n_jobs");
  const index_t timesteps = args.number<index_t>("timesteps");
  for (index_t i = 0; i < n_jobs; ++i) {
    sched::CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = geometry_name;
    spec.timesteps = timesteps;
    spec.allow_spot = (i % 3 == 1);
    jobs.push_back(spec);
  }

  sched::EngineConfig engine_config;
  engine_config.seed = args.seed("seed");
  sched::CampaignEngine engine(scheduler, engine_config);
  const sched::CampaignReport report = engine.run(std::move(jobs));
  if (args.has("--csv")) {
    std::cout << report.to_csv();
  } else {
    report.print(std::cout);
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder::global().write_chrome_json(trace_path);
    HEMO_LOG_INFO("trace written to %s (open in ui.perfetto.dev)",
                  trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    obs::write_metrics_jsonl(obs::MetricsRegistry::global(), metrics_path);
    HEMO_LOG_INFO("metrics written to %s", metrics_path.c_str());
  }
  const real_t hold_s = args.number<real_t>("--hold");
  if (plane != nullptr && hold_s != 0.0) {
    // A held process ends by being killed, so the report must leave the
    // stdout buffer first.
    std::cout.flush();
    plane->hold(hold_s);
  }
  return 0;
}

int cmd_check(const Args& args) {
  const check::PropertyConfig config{.seed = args.seed("seed"),
                                     .cases = args.number<index_t>("cases")};
  // The oracle runner stores per-oracle wall time in the registry; the
  // results themselves stay a pure function of the seed.
  obs::MetricsRegistry::global().enable(true);
  HEMO_LOG_INFO("calibrating oracle context (3 workloads, CPU catalog) ...");
  auto ctx = check::OracleContext::make_default();
  bool all_passed = true;
  for (const auto& result : check::run_all_oracles(ctx, config)) {
    std::cout << result.summary() << "\n";
    all_passed = all_passed && result.passed;
  }

  std::vector<std::pair<std::string, real_t>> timings;
  for (const auto& snap : obs::MetricsRegistry::global().snapshot()) {
    if (snap.name != "check_oracle_wall_seconds") continue;
    std::string oracle;
    for (const auto& [k, v] : snap.labels) {
      if (k == "oracle") oracle = v;
    }
    timings.emplace_back(oracle, snap.value);
  }
  std::ranges::sort(timings, std::greater{}, [](auto& t) { return t.second; });
  if (!timings.empty()) {
    std::cout << "\noracle wall time (slowest first):\n";
    TextTable t;
    t.set_header({"oracle", "wall_s"});
    for (const auto& [oracle, seconds] : timings) {
      t.add_row({oracle, TextTable::num(seconds, 3)});
    }
    t.print(std::cout);
  }
  std::cout << (all_passed ? "check: all oracles passed\n"
                           : "check: FAILURES above\n");
  return all_passed ? 0 : 1;
}

/// Sort weight of one series for `--sort`: histograms by total recorded
/// time/amount, counters and gauges by value — the same slowest-first
/// ordering the `check` command prints for oracle wall time.
real_t series_weight(const obs::MetricSnapshot& snap) {
  return snap.kind == obs::MetricKind::kHistogram ? snap.histogram.sum
                                                  : snap.value;
}

int cmd_metrics(const Args& args) {
  const std::string path = args.text("file.jsonl");
  const std::string filter = args.text("--filter");
  const std::string format = args.text("--format");
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::cerr << "error: cannot read metrics file: " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::vector<obs::MetricSnapshot> snapshots =
      obs::parse_metrics_jsonl(buffer.str());
  if (!filter.empty()) {
    std::erase_if(snapshots, [&filter](const obs::MetricSnapshot& snap) {
      return !obs::series_matches(filter, snap);
    });
  }
  if (snapshots.empty()) {
    if (filter.empty()) {
      std::cerr << "error: no metrics found in " << path << "\n";
    } else {
      std::cerr << "error: no series match --filter '" << filter << "' in "
                << path << "\n";
    }
    return 1;
  }
  if (args.has("--sort")) {
    // Stable so ties keep the canonical key order of the snapshot.
    std::stable_sort(snapshots.begin(), snapshots.end(),
                     [](const auto& a, const auto& b) {
                       return series_weight(a) > series_weight(b);
                     });
  }
  if (format == "prom") {
    std::cout << obs::to_prometheus(snapshots);
    return 0;
  }
  if (format == "json") {
    std::cout << obs::to_metrics_json(snapshots) << "\n";
    return 0;
  }
  TextTable t;
  t.set_header(
      {"metric", "labels", "type", "value/count", "sum", "p50", "p99"});
  for (const obs::MetricSnapshot& snap : snapshots) {
    std::string labels;
    for (const auto& [key, value] : snap.labels) {
      if (!labels.empty()) labels += ',';
      labels += key;
      labels += '=';
      labels += value;
    }
    const bool histogram = snap.kind == obs::MetricKind::kHistogram;
    const char* type = snap.kind == obs::MetricKind::kCounter ? "counter"
                       : snap.kind == obs::MetricKind::kGauge ? "gauge"
                                                              : "histogram";
    t.add_row({snap.name, labels.empty() ? "-" : labels, type,
               histogram
                   ? TextTable::num(static_cast<index_t>(snap.histogram.count))
                   : TextTable::num(snap.value, 6),
               histogram ? TextTable::num(snap.histogram.sum, 6) : "-",
               histogram ? TextTable::num(snap.histogram.quantile(0.5), 6)
                         : "-",
               histogram ? TextTable::num(snap.histogram.quantile(0.99), 6)
                         : "-"});
  }
  t.print(std::cout);
  std::cout << snapshots.size() << " series\n";
  return 0;
}

int cmd_mutate(const Args& args) {
  const check::PropertyConfig config{.seed = args.seed("seed"),
                                     .cases = args.number<index_t>("cases")};
  HEMO_LOG_INFO("calibrating oracle context (3 workloads, CPU catalog) ...");
  auto ctx = check::OracleContext::make_default();
  const check::MutationReport report =
      check::run_mutation_suite(ctx, config);
  std::cout << report.summary();
  return report.all_detected() ? 0 : 1;
}

int cmd_nemesis(const Args& args) {
  const std::uint64_t seed = args.seed("--seed");
  const std::string artifacts_dir = args.text("--artifacts");
  const check::PropertyConfig config{.seed = seed,
                                     .cases = args.number<index_t>("--cases")};

  // Teeth first: a harness whose checker cannot convict a known-buggy
  // engine proves nothing about a passing storm sweep.
  const nemesis::SelfTestReport self_test =
      nemesis::run_protocol_self_test(seed);
  std::cout << self_test.summary();
  bool all_passed = self_test.all_detected();

  std::vector<std::string> storms = nemesis::storm_names();
  const std::string storm = args.text("--storm");
  if (!storm.empty()) storms = {storm};
  for (const std::string& name : storms) {
    std::shared_ptr<nemesis::NemesisFailure> failure;
    const check::PropertyResult result =
        nemesis::nemesis_property(name, config, &failure);
    std::cout << result.summary() << "\n";
    all_passed = all_passed && result.passed;
    if (failure != nullptr) {
      std::cout << failure->verdict.check.summary();
      if (!artifacts_dir.empty()) {
        const std::string dir = artifacts_dir + "/" + name;
        for (const std::string& path :
             nemesis::write_failure_artifacts(*failure, dir)) {
          std::cout << "artifact: " << path << "\n";
        }
      }
    }
  }
  std::cout << (all_passed ? "nemesis: all storms passed\n"
                           : "nemesis: FAILURES above\n");
  return all_passed ? 0 : 1;
}

/// A command table entry: its function, positionals and flags, and summary.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<Param> params;
  std::string_view summary;
};

const std::vector<Command>& commands() {
  using K = Kind;
  const std::vector<Param> kCasesSeed = {{"cases", K::kCount, "40"},
                                         {"seed", K::kSeed, ""}};
  static const std::vector<Command> table = {
      {"instances", cmd_instances, {},
       "List the instance catalog (Table I view)."},
      {"calibrate", cmd_calibrate, {{"instance"}},
       "Run the microbenchmark calibration and print fit parameters."},
      {"predict", cmd_predict,
       {{"geometry"}, {"instance"}, {"ranks", K::kCount}},
       "Direct-model prediction vs a virtual-cluster measurement."},
      {"dashboard", cmd_dashboard, {{"geometry"}, {"timesteps", K::kCount}},
       "Evaluate all instances; print cost metrics and recommendations."},
      {"simulate", cmd_simulate,
       {{"geometry"}, {"steps", K::kCount}, {"out.vtk", K::kText, ""}},
       "Run the real solver locally; optionally export the flow field."},
      {"run", cmd_run,
       {{"geometry"}, {"steps", K::kCount}, {"--ranks", K::kCount, "4", "N"},
        {"--rebalance", K::kSwitch}, {"--profile", K::kText, "", "out.folded"}},
       "Threaded runtime, then measured-vs-model per-rank step terms."},
      {"schedule", cmd_schedule,
       {{"geometry"}, {"n_jobs", K::kCount}, {"timesteps", K::kCount},
        {"seed", K::kSeed, "42"}, {"--csv", K::kSwitch},
        {"--trace", K::kText, "", "out.json"},
        {"--metrics", K::kText, "", "out.jsonl"},
        {"--listen", K::kPort, "", "PORT"}, {"--hold", K::kReal, "0", "SEC"}},
       "Campaign report; --listen serves the live plane (--hold -1: forever)."},
      {"metrics", cmd_metrics,
       {{"file.jsonl"}, {"--filter", K::kText, "", "'name{label=...}'"},
        {"--sort", K::kSwitch},
        {"--format", K::kChoice, "table", "table|prom|json"}},
       "Summarize a --metrics snapshot; --sort puts the slowest first."},
      {"kernels", cmd_kernels, {{"geometry", K::kText, "cylinder"}},
       "SIMD backends of this host and roofline inputs per kernel."},
      {"check", cmd_check, kCasesSeed,
       "Model and solver oracles; exit 0 only when all pass."},
      {"mutate", cmd_mutate, kCasesSeed,
       "Mutation self-test: every perturbed coefficient must be caught."},
      {"nemesis", cmd_nemesis,
       {{"--seed", K::kSeed, "", "S"}, {"--cases", K::kCount, "6", "N"},
        {"--storm", K::kText, "", "name"},
        {"--artifacts", K::kText, "", "dir"}},
       "Protocol self-test and seeded fault storms through the engine."},
  };
  return table;
}

bool well_formed(const Param& param, const char* text) {
  switch (param.kind) {
    case Kind::kCount: return read_number<index_t>(text).has_value();
    case Kind::kReal: return read_number<real_t>(text).has_value();
    case Kind::kPort: return read_number<std::uint16_t>(text).has_value();
    case Kind::kSeed: return read_seed(text).has_value();
    case Kind::kChoice:
      for (const auto word : std::views::split(param.metavar, '|')) {
        if (std::string_view(word.begin(), word.end()) == text) return true;
      }
      return false;
    case Kind::kText:
    case Kind::kSwitch: return true;
  }
  return false;
}

/// Reads the arguments after the command name against `command`. Flags may
/// sit anywhere among the positionals, a value flag takes the next argument
/// whatever it looks like (`--hold -1`), and a repeated flag keeps its last
/// value. An unknown flag, a missing or extra positional, or a value that
/// does not read in full as its kind gives nothing.
std::optional<Args> parse(const Command& command,
                          std::span<char* const> argv) {
  Args args;
  for (const Param& param : command.params) {
    if (param.defaulted()) args.values[param.name] = param.fallback;
  }
  auto next = command.params.begin();  // the next positional to fill
  const auto end = command.params.end();
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const char* text = argv[i];
    auto param = std::ranges::find_if_not(next, end, &Param::flag);
    if (std::string_view(text).starts_with("--")) {
      param = std::ranges::find(command.params, std::string_view(text),
                                &Param::name);
      if (param == end) return std::nullopt;
      if (param->kind != Kind::kSwitch) {
        if (++i == argv.size()) return std::nullopt;
        text = argv[i];
      }
    } else if (param == end) {
      return std::nullopt;
    } else {
      next = param + 1;
    }
    if (!well_formed(*param, text)) return std::nullopt;
    args.values[param->name] = text;
  }
  if (std::ranges::any_of(next, end, &Param::required)) return std::nullopt;
  return args;
}

int usage() {
  std::cerr << "usage (flags go anywhere; a malformed argument exits 2):\n";
  for (const Command& command : commands()) {
    std::string line = "  hemocloud_cli " + std::string(command.name);
    const std::size_t indent = line.size();
    for (const Param& param : command.params) {
      // "<geometry>" when required, else "[seed=42]" or "[--ranks N=4]".
      std::string word(param.name);
      if (!param.metavar.empty()) word += ' ' + std::string(param.metavar);
      if (param.defaulted()) word += '=' + std::string(param.fallback);
      word = param.required() ? '<' + word + '>' : '[' + word + ']';
      if (line.size() + 1 + word.size() > 79) {
        std::cerr << line << "\n";
        line.assign(indent, ' ');
      }
      line += ' ' + word;
    }
    std::cerr << line << "\n      " << command.summary << "\n";
  }
  std::cerr << "geometries: cylinder | aorta | cerebral; "
               "a seed with no default is HEMO_SEED, else 42\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const auto& table = commands();
    const auto command =
        std::ranges::find(table, std::string_view(argv[1]), &Command::name);
    if (command == table.end()) return usage();
    const std::optional<Args> args = parse(
        *command, std::span(argv + 2, static_cast<std::size_t>(argc - 2)));
    return args ? command->run(*args) : usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
