// Tests for the telemetry subsystem (src/obs/): registry semantics and the
// near-zero disabled path, histogram quantiles, JSONL export, leveled-log
// parsing, Chrome-trace JSON structure, model-drift recording — and the
// headline acceptance property: the virtual-time trace of a seeded
// campaign is byte-identical for 1/2/8 workers, and enabling telemetry
// does not change the campaign's canonical CSV report.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "geometry/generators.hpp"
#include "lbm/io.hpp"
#include "lbm/mesh.hpp"
#include "lbm/solver.hpp"
#include "obs/drift.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sched/executor.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"

namespace hemo::obs {
namespace {

/// The registry and recorder are process-global; each test claims them
/// fresh and leaves them disabled so suites stay order-independent.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::global().enable(false);
    MetricsRegistry::global().reset();
    TraceRecorder::global().enable(false);
    TraceRecorder::global().reset();
  }
  void TearDown() override { SetUp(); }
};

using MetricsRegistryTest = ObsTest;
using TraceRecorderTest = ObsTest;
using DriftTest = ObsTest;
using ObsCampaignTest = ObsTest;

TEST_F(MetricsRegistryTest, DisabledRegistryRecordsNothing) {
  MetricsRegistry& registry = MetricsRegistry::global();
  ASSERT_FALSE(registry.enabled());
  registry.add("c");
  registry.set("g", 3.0);
  registry.observe("h", 1.5);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_TRUE(registry.to_jsonl().empty());
}

TEST_F(MetricsRegistryTest, CountersAccumulateAndGaugesOverwrite) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.enable(true);
  registry.add("jobs_total");
  registry.add("jobs_total", 2.0);
  registry.set("factor", 0.5);
  registry.set("factor", 0.75);

  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  // Snapshot order is canonical (sorted by series key).
  EXPECT_EQ(snaps[0].name, "factor");
  EXPECT_EQ(snaps[0].kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snaps[0].value, 0.75);
  EXPECT_EQ(snaps[1].name, "jobs_total");
  EXPECT_EQ(snaps[1].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(snaps[1].value, 3.0);
}

TEST_F(MetricsRegistryTest, LabelsAreCanonicalizedIntoDistinctSeries) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.enable(true);
  // Same labels in different order must land in one series...
  registry.add("placements", 1.0, {{"instance", "TRC"}, {"spot", "true"}});
  registry.add("placements", 1.0, {{"spot", "true"}, {"instance", "TRC"}});
  // ...different values in another.
  registry.add("placements", 1.0, {{"instance", "TRC"}, {"spot", "false"}});
  ASSERT_EQ(registry.size(), 2u);

  for (const auto& snap : registry.snapshot()) {
    if (snap.key() == "placements{instance=TRC,spot=true}") {
      EXPECT_DOUBLE_EQ(snap.value, 2.0);
    } else {
      EXPECT_EQ(snap.key(), "placements{instance=TRC,spot=false}");
      EXPECT_DOUBLE_EQ(snap.value, 1.0);
    }
  }
}

TEST_F(MetricsRegistryTest, MismatchedKindReRegistrationThrows) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.enable(true);
  registry.add("series");
  EXPECT_THROW(registry.set("series", 1.0), PreconditionError);
}

TEST_F(MetricsRegistryTest, HistogramTracksCountSumMinMaxAndQuantiles) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.enable(true);
  for (int i = 1; i <= 100; ++i) {
    registry.observe("latency", static_cast<real_t>(i));
  }
  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  const HistogramData& h = snaps[0].histogram;
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  // Fixed 1-2-5 buckets give interpolated quantiles: coarse, but they
  // must be monotone, clamped to the observed range, and near the truth.
  const real_t p50 = h.quantile(0.50);
  const real_t p90 = h.quantile(0.90);
  const real_t p99 = h.quantile(0.99);
  EXPECT_GE(p50, h.min);
  EXPECT_LE(p99, h.max);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(p50, 50.0, 25.0);
  EXPECT_NEAR(p99, 99.0, 10.0);
}

TEST_F(MetricsRegistryTest, JsonlExportIsOneObjectPerSeries) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.enable(true);
  registry.add("a_total", 2.0, {{"k", "v"}});
  registry.observe("b_seconds", 0.25);
  const std::string jsonl = registry.to_jsonl();
  EXPECT_NE(jsonl.find("{\"name\":\"a_total\",\"labels\":{\"k\":\"v\"},"
                       "\"type\":\"counter\",\"value\":2}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"b_seconds\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"count\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"p99\":"), std::string::npos);
  // Exactly one line per series, each a complete object.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

TEST(LogLevelTest, ParsesNamesDigitsAndFallsBack) {
  EXPECT_EQ(parse_log_level("error", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(parse_log_level("warn", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("info", LogLevel::kError), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("0", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(parse_log_level("3", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level(nullptr, LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("", LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("verbose", LogLevel::kError), LogLevel::kError);
}

/// Samples of lbm_step_seconds{phase=`phase`} in the global registry.
std::uint64_t step_samples(const std::string& phase) {
  std::uint64_t count = 0;
  for (const MetricSnapshot& snap : MetricsRegistry::global().snapshot()) {
    if (snap.name != "lbm_step_seconds") continue;
    for (const auto& [key, value] : snap.labels) {
      if (key == "phase" && value == phase) count += snap.histogram.count;
    }
  }
  return count;
}

TEST_F(MetricsRegistryTest, SolverStepsObservePhaseTimesOnlyWhileEnabled) {
  const auto geo = geometry::make_cylinder({.radius = 3, .length = 8});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  lbm::SolverParams ab;
  lbm::SolverParams aa;
  aa.kernel.propagation = lbm::Propagation::kAA;

  lbm::Solver<double> quiet(mesh, ab, std::span(geo.inlets));
  quiet.run(2);
  EXPECT_TRUE(MetricsRegistry::global().snapshot().empty());

  MetricsRegistry::global().enable(true);
  lbm::Solver<double> ab_solver(mesh, ab, std::span(geo.inlets));
  ab_solver.run(3);
  EXPECT_EQ(step_samples("ab_pull"), 3u);
  lbm::Solver<double> aa_solver(mesh, aa, std::span(geo.inlets));
  aa_solver.run(4);
  EXPECT_EQ(step_samples("aa_even"), 2u);
  EXPECT_EQ(step_samples("aa_odd"), 2u);
}

/// Samples of lbm_step_seconds{precision=`precision`} in the global
/// registry.
std::uint64_t precision_samples(const std::string& precision) {
  std::uint64_t count = 0;
  for (const MetricSnapshot& snap : MetricsRegistry::global().snapshot()) {
    if (snap.name != "lbm_step_seconds") continue;
    for (const auto& [key, value] : snap.labels) {
      if (key == "precision" && value == precision) {
        count += snap.histogram.count;
      }
    }
  }
  return count;
}

TEST_F(MetricsRegistryTest, FloatSolverTakesItsPrecisionFromT) {
  // Default SolverParams ask for double; a Solver<float> still stores,
  // labels and checkpoints single precision.
  const auto geo = geometry::make_cylinder({.radius = 3, .length = 8});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const lbm::SolverParams params;
  ASSERT_EQ(params.kernel.precision, lbm::Precision::kDouble);

  MetricsRegistry::global().enable(true);
  lbm::Solver<float> solver(mesh, params, std::span(geo.inlets));
  EXPECT_EQ(solver.params().kernel.precision, lbm::Precision::kSingle);
  solver.run(3);
  EXPECT_EQ(precision_samples("f32"), 3u);
  EXPECT_EQ(precision_samples("f64"), 0u);

  std::stringstream buffer;
  lbm::save_checkpoint(solver, buffer);
  lbm::Solver<float> restored(mesh, params, std::span(geo.inlets));
  lbm::load_checkpoint(restored, buffer);
  EXPECT_EQ(restored.timestep(), solver.timestep());
  EXPECT_EQ(restored.export_state(), solver.export_state());
}

TEST_F(TraceRecorderTest, DisabledRecorderIgnoresEvents) {
  TraceRecorder& trace = TraceRecorder::global();
  trace.virtual_span("s", "c", 1, units::Seconds(0.0), units::Seconds(1.0));
  trace.virtual_instant("i", "c", 1, units::Seconds(0.5));
  { const Phase span("w"); }
  EXPECT_EQ(trace.virtual_event_count(), 0u);
  EXPECT_EQ(trace.to_chrome_json().find("wall clock"), std::string::npos);
}

TEST_F(TraceRecorderTest, ChromeJsonHasSpansInstantsAndMetadata) {
  TraceRecorder& trace = TraceRecorder::global();
  trace.enable(true);
  trace.virtual_span("attempt", "sched", 3, units::Seconds(1.0),
                     units::Seconds(2.5), {{"instance", "TRC"}});
  trace.virtual_instant("preemption", "fault", 3, units::Seconds(1.5));
  set_thread_label("tester");
  { const Phase span("stream", "microbench", [] { return TraceArgs{}; }); }

  const std::string json = trace.to_chrome_json();
  EXPECT_EQ(json.find("{\"traceEvents\":[\n"), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Both clock domains are named processes.
  EXPECT_NE(json.find("\"args\":{\"name\":\"campaign (virtual time)\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"wall clock\"}"),
            std::string::npos);
  // Complete span: phase X, microsecond ts/dur, job id as tid.
  EXPECT_NE(
      json.find("{\"name\":\"attempt\",\"cat\":\"sched\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":3,\"ts\":1000000.000,"
                "\"dur\":1500000.000,\"args\":{\"instance\":\"TRC\"}}"),
      std::string::npos);
  // The wall span sits on its thread's own track, named by its label.
  EXPECT_NE(json.find("\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"tester\"}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\":\"stream\",\"cat\":\"microbench\","
                      "\"ph\":\"X\",\"pid\":2,"),
            std::string::npos);
  // Instant: phase i with thread scope.
  EXPECT_NE(json.find("{\"name\":\"preemption\",\"cat\":\"fault\","
                      "\"ph\":\"i\",\"pid\":1,\"tid\":3,"
                      "\"ts\":1500000.000,\"s\":\"t\"}"),
            std::string::npos);

  // The virtual-only export drops the wall span and its process.
  const std::string virtual_only = trace.to_chrome_json(false);
  EXPECT_EQ(virtual_only.find("stream"), std::string::npos);
  EXPECT_EQ(virtual_only.find("wall clock"), std::string::npos);
  EXPECT_NE(virtual_only.find("\"name\":\"attempt\""), std::string::npos);
}

TEST_F(TraceRecorderTest, BackwardsVirtualSpanIsRejected) {
  TraceRecorder& trace = TraceRecorder::global();
  trace.enable(true);
  EXPECT_THROW(trace.virtual_span("s", "c", 1, units::Seconds(2.0),
                                  units::Seconds(1.0)),
               PreconditionError);
}

TEST_F(DriftTest, RecordsCounterAndErrorHistogramsPerRound) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.enable(true);

  DriftSample sample;
  sample.workload = "cylinder";
  sample.instance = "TRC";
  sample.round = 0;
  sample.predicted_mflups = 110.0;
  sample.measured_mflups = 100.0;
  sample.predicted_step_seconds = 0.9e-3;
  sample.actual_step_seconds = 1.0e-3;
  record_drift(registry, sample);

  bool saw_counter = false, saw_mflups = false, saw_step = false;
  for (const auto& snap : registry.snapshot()) {
    if (snap.name == "model_drift_samples_total") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(snap.value, 1.0);
    }
    if (snap.name == "model_drift_mflups_rel_error") {
      saw_mflups = true;
      EXPECT_EQ(snap.key(),
                "model_drift_mflups_rel_error{instance=TRC,round=0,"
                "workload=cylinder}");
      ASSERT_EQ(snap.histogram.count, 1u);
      // (110 - 100) / 100 = +0.10: the model overpredicted.
      EXPECT_NEAR(snap.histogram.sum, 0.10, 1e-12);
    }
    if (snap.name == "model_drift_step_time_rel_error") {
      saw_step = true;
      EXPECT_NEAR(snap.histogram.sum, -0.10, 1e-12);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_mflups);
  EXPECT_TRUE(saw_step);
}

TEST_F(DriftTest, RoundLabelsAreBounded) {
  EXPECT_EQ(drift_round_label(0), "0");
  EXPECT_EQ(drift_round_label(3), "3");
  EXPECT_EQ(drift_round_label(4), "4-7");
  EXPECT_EQ(drift_round_label(7), "4-7");
  EXPECT_EQ(drift_round_label(8), "8+");
  EXPECT_EQ(drift_round_label(1000), "8+");
}

// ---------------------------------------------------------------------------
// Campaign-level acceptance: telemetry of a seeded campaign.

std::unique_ptr<sched::CampaignScheduler> make_scheduler() {
  sched::SchedulerConfig config;
  config.core_counts = {8, 16, 32};
  auto scheduler = std::make_unique<sched::CampaignScheduler>(
      std::vector<const cluster::InstanceProfile*>{
          &cluster::instance_by_abbrev("CSP-1"),
          &cluster::instance_by_abbrev("CSP-2 Small")},
      config);
  const std::vector<index_t> cal_counts = {2, 4, 8, 16};
  scheduler->register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      cal_counts);
  return scheduler;
}

std::vector<sched::CampaignJobSpec> small_campaign() {
  std::vector<sched::CampaignJobSpec> jobs;
  for (index_t i = 0; i < 4; ++i) {
    sched::CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = "cylinder";
    spec.timesteps = 20000;
    spec.allow_spot = (i % 2 == 1);
    jobs.push_back(spec);
  }
  return jobs;
}

std::string run_traced_campaign(index_t n_workers, std::string* csv) {
  TraceRecorder::global().reset();
  MetricsRegistry::global().reset();
  auto scheduler = make_scheduler();
  sched::EngineConfig config;
  config.n_workers = n_workers;
  config.seed = 42;
  sched::CampaignEngine engine(*scheduler, config);
  const sched::CampaignReport report = engine.run(small_campaign());
  if (csv != nullptr) *csv = report.to_csv();
  return TraceRecorder::global().to_chrome_json(/*include_wall=*/false);
}

TEST_F(ObsCampaignTest, VirtualTraceIsByteIdenticalAcrossWorkerCounts) {
  TraceRecorder::global().enable(true);
  MetricsRegistry::global().enable(true);
  std::string baseline_trace, baseline_csv;
  baseline_trace = run_traced_campaign(1, &baseline_csv);
  EXPECT_GT(TraceRecorder::global().virtual_event_count(), 0u);
  for (const index_t n_workers : {2, 8}) {
    std::string csv;
    const std::string trace = run_traced_campaign(n_workers, &csv);
    EXPECT_EQ(trace, baseline_trace)
        << "virtual trace diverged at " << n_workers << " workers";
    EXPECT_EQ(csv, baseline_csv)
        << "campaign report diverged at " << n_workers << " workers";
  }
}

TEST_F(ObsCampaignTest, EnablingTelemetryDoesNotChangeTheReport) {
  std::string dark_csv;
  {
    // Telemetry fully disabled (the default production path).
    auto scheduler = make_scheduler();
    sched::EngineConfig config;
    config.seed = 42;
    sched::CampaignEngine engine(*scheduler, config);
    dark_csv = engine.run(small_campaign()).to_csv();
  }
  TraceRecorder::global().enable(true);
  MetricsRegistry::global().enable(true);
  std::string traced_csv;
  (void)run_traced_campaign(2, &traced_csv);
  EXPECT_EQ(traced_csv, dark_csv);
}

TEST_F(ObsCampaignTest, CampaignPopulatesSchedulerAndDriftMetrics) {
  TraceRecorder::global().enable(true);
  MetricsRegistry::global().enable(true);
  (void)run_traced_campaign(2, nullptr);

  bool saw_attempts = false, saw_place = false, saw_drift = false;
  bool saw_calibration = false;
  for (const auto& snap : MetricsRegistry::global().snapshot()) {
    if (snap.name == "campaign_attempts_total") saw_attempts = true;
    if (snap.name == "sched_place_total") saw_place = true;
    if (snap.name == "model_drift_mflups_rel_error") saw_drift = true;
    if (snap.name == "calibration_mem_breakpoint_threads") {
      saw_calibration = true;
    }
  }
  EXPECT_TRUE(saw_attempts);
  EXPECT_TRUE(saw_place);
  EXPECT_TRUE(saw_drift);
  EXPECT_TRUE(saw_calibration);
}

}  // namespace
}  // namespace hemo::obs
