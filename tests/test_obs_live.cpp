// Tests for the live observability plane (src/obs/): Prometheus text
// exposition conformance (golden bytes, label escaping, cumulative
// histogram rendering), JSONL round-trip through parse_metrics_jsonl,
// glob series selection, the POSIX HTTP telemetry server (routing and a
// real socket round-trip on an ephemeral port), the SLO watchdog
// (evaluation, health transitions and the unhealthy hook), the
// phase-stack sampling profiler, and the fault flight recorder —
// including the acceptance property that the recorder's protocol entries
// mirror the executor's canonical history byte-for-byte.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/instance.hpp"
#include "geometry/generators.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/server.hpp"
#include "obs/watchdog.hpp"
#include "sched/executor.hpp"
#include "sched/history.hpp"
#include "sched/scheduler.hpp"

namespace hemo::obs {
namespace {

/// The profiler and flight recorder are process-global; each test claims
/// them fresh and leaves them disabled so suites stay order-independent.
class ObsLiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::global().enable(false);
    MetricsRegistry::global().reset();
    PhaseProfiler::global().stop();
    PhaseProfiler::global().enable(false);
    PhaseProfiler::global().reset();
    FlightRecorder::global().enable(false);
    FlightRecorder::global().reset();
    FlightRecorder::global().set_capacity(FlightRecorder::kDefaultCapacity);
  }
  void TearDown() override { SetUp(); }
};

using PromExportTest = ObsLiveTest;
using JsonlRoundTripTest = ObsLiveTest;
using GlobTest = ObsLiveTest;
using ServerTest = ObsLiveTest;
using WatchdogTest = ObsLiveTest;
using ProfilerTest = ObsLiveTest;
using RecorderTest = ObsLiveTest;

// ---------------------------------------------------------------------------
// Prometheus exposition conformance.

TEST_F(PromExportTest, GoldenExpositionBytes) {
  MetricsRegistry registry;
  registry.enable(true);
  registry.add("jobs_total", 3.0);
  registry.set("watchdog_health_state", 1.0);
  const std::array<real_t, 2> edges = {0.1, 1.0};
  const Labels labels = {{"job", "a"}};
  registry.observe("h_seconds", 0.05, labels, edges);
  registry.observe("h_seconds", 0.5, labels, edges);
  registry.observe("h_seconds", 5.0, labels, edges);

  // Families sort by name; buckets are cumulative and closed by +Inf;
  // unknown families get the fallback HELP line, known ones their text.
  const std::string expected =
      "# HELP h_seconds hemocloud metric.\n"
      "# TYPE h_seconds histogram\n"
      "h_seconds_bucket{job=\"a\",le=\"0.1\"} 1\n"
      "h_seconds_bucket{job=\"a\",le=\"1\"} 2\n"
      "h_seconds_bucket{job=\"a\",le=\"+Inf\"} 3\n"
      "h_seconds_sum{job=\"a\"} 5.55\n"
      "h_seconds_count{job=\"a\"} 3\n"
      "# HELP jobs_total hemocloud metric.\n"
      "# TYPE jobs_total counter\n"
      "jobs_total 3\n"
      "# HELP watchdog_health_state SLO health: 0 ok, 1 degraded, 2 "
      "unhealthy.\n"
      "# TYPE watchdog_health_state gauge\n"
      "watchdog_health_state 1\n";
  EXPECT_EQ(to_prometheus(registry), expected);
}

TEST_F(PromExportTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.enable(true);
  registry.set("g", 1.0, {{"note", "a\"b\\c\nd"}});
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("g{note=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos)
      << text;
}

TEST_F(PromExportTest, ExpositionIsDeterministic) {
  MetricsRegistry registry;
  registry.enable(true);
  registry.add("b_total", 1.0, {{"x", "2"}});
  registry.add("b_total", 1.0, {{"x", "1"}});
  registry.add("a_total", 4.0);
  EXPECT_EQ(to_prometheus(registry), to_prometheus(registry));
  const std::string text = to_prometheus(registry);
  // a before b; within b, label values in canonical order.
  EXPECT_LT(text.find("a_total 4"), text.find("b_total{x=\"1\"} 1"));
  EXPECT_LT(text.find("b_total{x=\"1\"} 1"), text.find("b_total{x=\"2\"} 1"));
}

TEST_F(PromExportTest, CumulativeBucketsAccumulateAndCloseAtInf) {
  MetricsRegistry registry;
  registry.enable(true);
  const std::array<real_t, 3> edges = {1.0, 2.0, 3.0};
  for (const real_t v : {0.5, 1.5, 1.6, 2.5, 9.0}) {
    registry.observe("h_seconds", v, {}, edges);
  }
  const auto snaps = registry.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  const auto buckets = cumulative_buckets(snaps[0].histogram);
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].count, 3u);
  EXPECT_EQ(buckets[2].count, 4u);
  EXPECT_TRUE(buckets[3].inf);
  EXPECT_EQ(buckets[3].count, 5u);
}

// ---------------------------------------------------------------------------
// JSONL round-trip.

TEST_F(JsonlRoundTripTest, SnapshotSurvivesJsonlParse) {
  MetricsRegistry registry;
  registry.enable(true);
  registry.add("jobs_total", 7.0, {{"outcome", "completed"}});
  registry.set("factor", 0.75);
  const std::array<real_t, 2> edges = {0.1, 1.0};
  registry.observe("lat_seconds", 0.05, {{"job", "a"}}, edges);
  registry.observe("lat_seconds", 0.5, {{"job", "a"}}, edges);
  registry.observe("lat_seconds", 3.0, {{"job", "a"}}, edges);

  const auto before = registry.snapshot();
  const auto after = parse_metrics_jsonl(registry.to_jsonl());
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].name, before[i].name);
    EXPECT_EQ(after[i].labels, before[i].labels);
    EXPECT_EQ(after[i].kind, before[i].kind);
    if (before[i].kind == MetricKind::kHistogram) {
      EXPECT_EQ(after[i].histogram.count, before[i].histogram.count);
      EXPECT_DOUBLE_EQ(after[i].histogram.sum, before[i].histogram.sum);
      EXPECT_EQ(after[i].histogram.buckets, before[i].histogram.buckets);
      EXPECT_EQ(after[i].histogram.edges, before[i].histogram.edges);
    } else {
      EXPECT_DOUBLE_EQ(after[i].value, before[i].value);
    }
  }
  // And the re-parsed snapshot renders the same exposition bytes.
  EXPECT_EQ(to_prometheus(after), to_prometheus(before));
}

TEST_F(JsonlRoundTripTest, NonMetricLinesAreSkipped) {
  const auto snaps = parse_metrics_jsonl(
      "\n# comment\n{\"name\":\"c_total\",\"labels\":{},\"type\":"
      "\"counter\",\"value\":2}\nnot json\n");
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "c_total");
  EXPECT_DOUBLE_EQ(snaps[0].value, 2.0);
}

// ---------------------------------------------------------------------------
// Glob selection.

TEST_F(GlobTest, GlobMatchCases) {
  EXPECT_TRUE(glob_match("campaign_*", "campaign_jobs_total"));
  EXPECT_TRUE(glob_match("*_seconds", "lbm_step_seconds"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_FALSE(glob_match("campaign_*", "runtime_windows_total"));
  EXPECT_TRUE(glob_match("a*b*c", "a_x_b_y_c"));
  EXPECT_FALSE(glob_match("a*b*c", "a_x_c"));
}

TEST_F(GlobTest, SeriesMatchesNameOrFullKey) {
  MetricSnapshot snap;
  snap.name = "campaign_jobs_total";
  snap.labels = {{"outcome", "failed"}};
  // Bare-name pattern ignores labels.
  EXPECT_TRUE(series_matches("campaign_*", snap));
  EXPECT_TRUE(series_matches("campaign_jobs_total", snap));
  // Pattern with '{' matches the full canonical key.
  EXPECT_TRUE(series_matches("campaign_jobs_total{outcome=failed}", snap));
  EXPECT_TRUE(series_matches("campaign_jobs_total{outcome=*}", snap));
  EXPECT_FALSE(
      series_matches("campaign_jobs_total{outcome=completed}", snap));
}

// ---------------------------------------------------------------------------
// HTTP server.

TEST_F(ServerTest, RespondRoutesTargets) {
  MetricsRegistry registry;
  registry.enable(true);
  registry.add("jobs_total", 2.0);
  TelemetryServer server(registry);

  const std::string metrics = server.respond("/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("jobs_total 2"), std::string::npos);

  const std::string json = server.respond("/metrics.json");
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);

  // Without a watchdog /healthz reports ok.
  const std::string healthz = server.respond("/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\"status\":\"ok\""), std::string::npos);

  const std::string status = server.respond("/status");
  EXPECT_NE(status.find("\"http_requests\":"), std::string::npos);

  EXPECT_NE(server.respond("/nope").find("404"), std::string::npos);
}

TEST_F(ServerTest, UnhealthyWatchdogYields503) {
  MetricsRegistry registry;
  registry.enable(true);
  registry.add("campaign_jobs_total", 3.0, {{"outcome", "failed"}});
  registry.add("campaign_attempts_total", 4.0);
  Watchdog watchdog(registry);
  watchdog.evaluate();
  ASSERT_EQ(watchdog.health(), Health::kUnhealthy);

  TelemetryServer server(registry);
  server.set_watchdog(&watchdog);
  const std::string healthz = server.respond("/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(healthz.find("\"status\":\"unhealthy\""), std::string::npos);
}

/// One blocking HTTP GET against 127.0.0.1:`port`, returning the full
/// response (a ~15-line client is cheaper than a curl dependency).
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  for (;;) {
    const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ServerTest, HttpRoundTripOnEphemeralPort) {
  MetricsRegistry registry;
  registry.enable(true);
  registry.add("jobs_total", 5.0);
  const std::array<real_t, 2> edges = {0.1, 1.0};
  registry.observe("lat_seconds", 0.5, {}, edges);

  TelemetryServer server(registry);  // port 0 = ephemeral
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("jobs_total 5"), std::string::npos);
  EXPECT_NE(metrics.find("lat_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);

  const std::string healthz = http_get(server.port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  // Request counter made it into the registry.
  bool saw_requests = false;
  for (const auto& snap : registry.snapshot()) {
    if (snap.name == "telemetry_http_requests_total") saw_requests = true;
  }
  EXPECT_TRUE(saw_requests);
}

// ---------------------------------------------------------------------------
// SLO watchdog.

TEST_F(WatchdogTest, EmptyRegistryIsInapplicableAndOk) {
  MetricsRegistry registry;
  registry.enable(true);
  Watchdog watchdog(registry);
  EXPECT_EQ(watchdog.evaluate(), Health::kOk);
  for (const RuleOutcome& outcome : watchdog.outcomes()) {
    EXPECT_FALSE(outcome.applicable) << outcome.rule.name;
    EXPECT_FALSE(outcome.breached) << outcome.rule.name;
  }
}

TEST_F(WatchdogTest, PreemptionStormDegradesThenRecovers) {
  MetricsRegistry registry;
  registry.enable(true);
  Watchdog watchdog(registry);

  registry.add("campaign_attempts_total", 10.0);
  registry.add("campaign_preemptions_total", 2.0);
  EXPECT_EQ(watchdog.evaluate(), Health::kOk);

  // Preemptions overtake half the attempts: degraded, not unhealthy.
  registry.add("campaign_preemptions_total", 5.0);
  EXPECT_EQ(watchdog.evaluate(), Health::kDegraded);
  bool saw_rule = false;
  for (const RuleOutcome& outcome : watchdog.outcomes()) {
    if (outcome.rule.name != "preemption_rate") continue;
    saw_rule = true;
    EXPECT_TRUE(outcome.applicable);
    EXPECT_TRUE(outcome.breached);
    EXPECT_NEAR(outcome.observed, 0.7, 1e-9);
  }
  EXPECT_TRUE(saw_rule);
  EXPECT_NE(watchdog.health_json().find("\"status\":\"degraded\""),
            std::string::npos);

  // The storm passes (counters keep counting, attempts catch up).
  registry.add("campaign_attempts_total", 20.0);
  EXPECT_EQ(watchdog.evaluate(), Health::kOk);
}

TEST_F(WatchdogTest, UnhealthyHookFiresOnTransitionOnly) {
  MetricsRegistry registry;
  registry.enable(true);
  Watchdog watchdog(registry);
  int fired = 0;
  watchdog.on_unhealthy([&fired] { ++fired; });

  registry.add("campaign_attempts_total", 4.0);
  registry.add("campaign_jobs_total", 2.0, {{"outcome", "failed"}});
  EXPECT_EQ(watchdog.evaluate(), Health::kUnhealthy);
  EXPECT_EQ(fired, 1);
  // Still unhealthy: no re-fire until it recovers and goes red again.
  EXPECT_EQ(watchdog.evaluate(), Health::kUnhealthy);
  EXPECT_EQ(fired, 1);
}

TEST_F(WatchdogTest, EvaluateExportsWatchdogGauges) {
  MetricsRegistry registry;
  registry.enable(true);
  Watchdog watchdog(registry);
  watchdog.evaluate();
  bool saw_state = false, saw_rule_gauge = false;
  for (const auto& snap : registry.snapshot()) {
    if (snap.name == "watchdog_health_state") saw_state = true;
    if (snap.name == "watchdog_rule_breached") saw_rule_gauge = true;
  }
  EXPECT_TRUE(saw_state);
  EXPECT_TRUE(saw_rule_gauge);
}

TEST_F(WatchdogTest, CadenceThreadEvaluatesAndStopsPromptly) {
  MetricsRegistry registry;
  registry.enable(true);
  Watchdog watchdog(registry);
  watchdog.start(0.01);
  // The cadence loop has run at least once within a generous bound.
  bool evaluated = false;
  for (int i = 0; i < 200 && !evaluated; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    evaluated = !watchdog.outcomes().empty();
  }
  EXPECT_TRUE(evaluated);
  const auto t0 = std::chrono::steady_clock::now();
  watchdog.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(stop_ms, 2000);
}

TEST_F(WatchdogTest, StartEvaluatesBeforeTheFirstPeriod) {
  MetricsRegistry registry;
  registry.enable(true);
  Watchdog watchdog(registry);
  watchdog.start(3600.0);
  // No period has elapsed, so /healthz and the gauges come from start().
  const std::string body = watchdog.health_json();
  for (const char* rule :
       {"drift_p99_band", "imbalance_ceiling", "preemption_rate",
        "failure_rate", "guard_stop_rate"}) {
    EXPECT_NE(body.find(std::string("\"name\":\"") + rule + '"'),
              std::string::npos)
        << rule << " missing from " << body;
  }
  int state = 0, breached = 0, observed = 0;
  for (const auto& snap : registry.snapshot()) {
    state += snap.name == "watchdog_health_state";
    breached += snap.name == "watchdog_rule_breached";
    observed += snap.name == "watchdog_rule_observed";
  }
  EXPECT_EQ(state, 1);
  EXPECT_EQ(breached, 5);
  EXPECT_EQ(observed, 5);
  watchdog.stop();
}

// ---------------------------------------------------------------------------
// Sampling profiler.

TEST_F(ProfilerTest, DisabledMarkersAreNoops) {
  PhaseProfiler& profiler = PhaseProfiler::global();
  ASSERT_FALSE(profiler.enabled());
  { const Phase scope("ignored"); }
  EXPECT_EQ(profiler.sample_count(), 0u);
  EXPECT_TRUE(profiler.folded().empty());
}

TEST_F(ProfilerTest, SamplesNestedPhasesIntoFoldedStacks) {
  PhaseProfiler& profiler = PhaseProfiler::global();
  profiler.start(/*hz=*/2000.0);
  set_thread_label("main");
  {
    const Phase outer("outer");
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
    while (std::chrono::steady_clock::now() < until) {
      const Phase inner("inner");
      (void)inner;
    }
  }
  profiler.stop();
  EXPECT_GT(profiler.sample_count(), 10u);
  const std::string folded = profiler.folded();
  EXPECT_NE(folded.find("main;outer"), std::string::npos) << folded;

  MetricsRegistry registry;
  registry.enable(true);
  profiler.export_metrics(registry);
  real_t self_total = 0.0;
  bool saw_period = false;
  for (const auto& snap : registry.snapshot()) {
    if (snap.name == "profile_phase_self_seconds") self_total += snap.value;
    if (snap.name == "profile_sample_period_seconds") saw_period = true;
  }
  EXPECT_TRUE(saw_period);
  // Total attributed self time tracks the sampled wall time.
  const real_t sampled_s =
      static_cast<real_t>(profiler.sample_count()) *
      profiler.period_seconds();
  EXPECT_GT(self_total, 0.0);
  EXPECT_LE(self_total, sampled_s * 1.1 + 0.01);
}

/// Opens `levels` nested "deep" phases and spins inside the innermost.
void nest_deep_phases(int levels) {
  if (levels == 0) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(80);
    while (std::chrono::steady_clock::now() < until) {
    }
    return;
  }
  const Phase phase("deep");
  nest_deep_phases(levels - 1);
}

TEST_F(ProfilerTest, OverflowBeyondMaxDepthIsDropped) {
  PhaseProfiler& profiler = PhaseProfiler::global();
  profiler.start(/*hz=*/2000.0);
  set_thread_label("main");
  nest_deep_phases(PhaseProfiler::kMaxDepth + 4);
  // The frames past the cap were never pushed, so unwinding them popped
  // nothing: a fresh phase lands at depth 1 again.
  {
    const Phase after("after");
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(80);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  profiler.stop();

  std::string capped = "main";
  for (int i = 0; i < PhaseProfiler::kMaxDepth; ++i) capped += ";deep";
  const std::string folded = profiler.folded();
  EXPECT_NE(folded.find(capped + " "), std::string::npos) << folded;
  EXPECT_EQ(folded.find(capped + ";deep"), std::string::npos) << folded;
  EXPECT_NE(folded.find("main;after "), std::string::npos) << folded;
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST_F(RecorderTest, DisabledNoteIsNoop) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.note("test", "dropped");
  EXPECT_TRUE(recorder.entries().empty());
}

TEST_F(RecorderTest, RingEvictsOldestAndCountsDrops) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.set_capacity(4);
  recorder.enable(true);
  for (int i = 0; i < 6; ++i) {
    recorder.note("test", "entry " + std::to_string(i));
  }
  const auto entries = recorder.entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().text, "entry 2");
  EXPECT_EQ(entries.back().text, "entry 5");
  EXPECT_EQ(recorder.dropped(), 2u);
  const std::string dump = recorder.dump();
  EXPECT_NE(dump.find("# hemocloud flight recorder (dropped=2)"),
            std::string::npos);
  EXPECT_NE(dump.find("entry 5"), std::string::npos);
  EXPECT_EQ(dump.find("entry 1"), std::string::npos);
}

TEST_F(RecorderTest, DumpEscapesNewlinesToOneLinePerEntry) {
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.enable(true);
  recorder.note("test", "line1\nline2");
  const std::string dump = recorder.dump();
  EXPECT_NE(dump.find("line1\\nline2"), std::string::npos);
  // Header + one entry = exactly two lines.
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
}

TEST_F(RecorderTest, SnapshotMetricsCapturesSeries) {
  MetricsRegistry registry;
  registry.enable(true);
  registry.add("jobs_total", 2.0);
  FlightRecorder& recorder = FlightRecorder::global();
  recorder.enable(true);
  recorder.snapshot_metrics(registry);
  const auto entries = recorder.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, "metrics");
  EXPECT_NE(entries[0].text.find("jobs_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Acceptance: the recorder's protocol entries mirror the executor's
// canonical history byte-for-byte during a faulted campaign, and carry the
// same sequence numbers when no history is attached (the configuration of
// `hemocloud_cli schedule --listen`).

/// Runs the faulted 3-job campaign on a fresh scheduler (the tracker learns
/// from each run) and returns the recorder's protocol entries, one per line.
std::string run_mirrored_campaign(sched::ProtocolHistory* history) {
  sched::SchedulerConfig sched_config;
  sched_config.core_counts = {8, 16, 32};
  sched::CampaignScheduler scheduler(
      std::vector<const cluster::InstanceProfile*>{
          &cluster::instance_by_abbrev("CSP-1"),
          &cluster::instance_by_abbrev("CSP-2 Small")},
      sched_config);
  const std::vector<index_t> cal_counts = {2, 4, 8};
  scheduler.register_workload(
      "cylinder", geometry::make_cylinder({.radius = 6, .length = 40}),
      cal_counts);

  std::vector<sched::CampaignJobSpec> jobs;
  for (index_t i = 0; i < 3; ++i) {
    sched::CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = "cylinder";
    spec.timesteps = 20000;
    spec.allow_spot = true;
    jobs.push_back(spec);
  }

  FlightRecorder& recorder = FlightRecorder::global();
  recorder.reset();
  recorder.enable(true);
  sched::EngineConfig config;
  config.n_workers = 2;
  config.seed = 42;
  config.faults.extra_preemption_probability = 0.3;
  config.history = history;
  sched::CampaignEngine engine(scheduler, config);
  (void)engine.run(std::move(jobs));

  std::string mirrored;
  for (const FlightEntry& entry : recorder.entries()) {
    if (entry.kind != "protocol") continue;
    mirrored += entry.text;
    mirrored += '\n';
  }
  recorder.enable(false);
  return mirrored;
}

TEST_F(RecorderTest, ProtocolEntriesMirrorCanonicalHistory) {
  sched::ProtocolHistory history;
  const std::string mirrored = run_mirrored_campaign(&history);
  ASSERT_FALSE(mirrored.empty());
  EXPECT_EQ(mirrored, history.canonical());
  EXPECT_EQ(run_mirrored_campaign(nullptr), history.canonical())
      << "recorder lines must be numbered without a history attached";
}

}  // namespace
}  // namespace hemo::obs
