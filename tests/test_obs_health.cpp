// Golden bytes for the campaign-health surfaces of the live telemetry
// plane. Each case hand-builds a metrics registry (empty, a preemption
// storm, a failure storm, a guard-stop storm, drift of both signs on two
// workloads, imbalance on two workloads, ratios without attempts, and a
// healthy campaign that fills every family), evaluates the SLO watchdog
// over it once, and pins three renderings in tests/golden/health_<case>.txt:
// the full /healthz HTTP response (status code included), the
// `watchdog_*` gauges in Prometheus text, and the full /status response.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/drift.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/server.hpp"
#include "obs/watchdog.hpp"

#include "golden_file.hpp"

namespace hemo::obs {
namespace {

/// Evaluates the watchdog over `registry` and renders the three surfaces
/// as one document, section by section.
std::string health_surfaces(MetricsRegistry& registry) {
  Watchdog watchdog(registry);
  watchdog.evaluate();

  std::vector<MetricSnapshot> gauges;
  for (MetricSnapshot& snap : registry.snapshot()) {
    if (series_matches("watchdog_*", snap)) gauges.push_back(std::move(snap));
  }

  TelemetryServer server(registry);
  server.set_watchdog(&watchdog);
  std::string out = "== /healthz\n" + server.respond("/healthz");
  out += "\n== watchdog_* gauges\n" + to_prometheus(gauges);
  out += "== /status\n" + server.respond("/status");
  return out;
}

void expect_golden(const std::string& name, MetricsRegistry& registry) {
  if (golden::check_golden("health_" + name + ".txt",
                           health_surfaces(registry))) {
    GTEST_SKIP() << "golden file regenerated";
  }
}

class HealthGolden : public ::testing::Test {
 protected:
  HealthGolden() { registry.enable(true); }
  MetricsRegistry registry;
};

void observe_drift(MetricsRegistry& registry, const std::string& workload,
                   const std::string& instance, real_t error, int samples) {
  for (int i = 0; i < samples; ++i) {
    registry.observe("model_drift_mflups_rel_error", error,
                     {{"workload", workload},
                      {"instance", instance},
                      {"round", "0"}},
                     drift_error_edges());
  }
}

TEST_F(HealthGolden, EmptyRegistry) {
  expect_golden("empty", registry);
}

TEST_F(HealthGolden, PreemptionStorm) {
  registry.add("campaign_attempts_total", 6.0,
               {{"instance", "c5"}, {"spot", "true"}});
  registry.add("campaign_attempts_total", 4.0,
               {{"instance", "m5"}, {"spot", "false"}});
  registry.add("campaign_preemptions_total", 7.0, {{"instance", "c5"}});
  registry.add("campaign_requeues_total", 7.0, {{"reason", "preempted"}});
  registry.add("campaign_jobs_total", 3.0, {{"outcome", "completed"}});
  expect_golden("preemption_storm", registry);
}

TEST_F(HealthGolden, FailureStorm) {
  registry.add("campaign_attempts_total", 4.0,
               {{"instance", "c5"}, {"spot", "false"}});
  registry.add("campaign_jobs_total", 3.0, {{"outcome", "failed"}});
  registry.add("campaign_jobs_total", 1.0, {{"outcome", "completed"}});
  registry.add("campaign_worker_crashes_total", 2.0, {{"instance", "c5"}});
  expect_golden("failure_storm", registry);
}

TEST_F(HealthGolden, GuardStopStorm) {
  registry.add("campaign_attempts_total", 8.0,
               {{"instance", "m5"}, {"spot", "false"}});
  registry.add("campaign_guard_stops_total", 3.0, {{"instance", "m5"}});
  registry.add("campaign_requeues_total", 3.0, {{"reason", "guard_stop"}});
  registry.add("campaign_jobs_total", 5.0, {{"outcome", "completed"}});
  expect_golden("guard_stop_storm", registry);
}

// Cylinder drifts only below zero (its worst p99 is negative); aorta has
// samples of both signs and breaches the band.
TEST_F(HealthGolden, DriftOfBothSignsOnTwoWorkloads) {
  observe_drift(registry, "cylinder", "c5", -0.15, 10);
  observe_drift(registry, "cylinder", "m5", -0.3, 4);
  observe_drift(registry, "aorta", "c5", -0.04, 6);
  observe_drift(registry, "aorta", "m5", 0.42, 3);
  expect_golden("drift_two_workloads", registry);
}

TEST_F(HealthGolden, ImbalanceOnTwoWorkloads) {
  registry.set("runtime_measured_imbalance", 1.2, {{"workload", "cylinder"}});
  registry.set("runtime_measured_imbalance", 1.8, {{"workload", "aorta"}});
  for (const std::string workload : {"cylinder", "aorta"}) {
    for (const std::string rank : {"0", "1"}) {
      registry.observe("runtime_window_busy_seconds",
                       rank == "0" ? 0.25 : 0.125,
                       {{"workload", workload}, {"rank", rank}});
    }
  }
  expect_golden("imbalance_two_workloads", registry);
}

// Numerator families without a single attempt: every ratio rule stays
// inapplicable.
TEST_F(HealthGolden, RatiosWithoutAttempts) {
  registry.add("campaign_preemptions_total", 2.0, {{"instance", "c5"}});
  registry.add("campaign_guard_stops_total", 1.0, {{"instance", "c5"}});
  registry.add("campaign_jobs_total", 1.0, {{"outcome", "failed"}});
  expect_golden("ratios_without_attempts", registry);
}

TEST_F(HealthGolden, HealthyCampaignFillsEveryFamily) {
  registry.add("campaign_attempts_total", 9.0,
               {{"instance", "c5"}, {"spot", "true"}});
  registry.add("campaign_attempts_total", 11.0,
               {{"instance", "m5"}, {"spot", "false"}});
  registry.add("campaign_preemptions_total", 2.0, {{"instance", "c5"}});
  registry.add("campaign_guard_stops_total", 1.0, {{"instance", "m5"}});
  registry.add("campaign_worker_crashes_total", 1.0, {{"instance", "m5"}});
  registry.add("campaign_requeues_total", 2.0, {{"reason", "preempted"}});
  registry.add("campaign_requeues_total", 1.0, {{"reason", "crash"}});
  registry.add("campaign_jobs_total", 16.0, {{"outcome", "completed"}});
  registry.add("campaign_jobs_total", 1.0, {{"outcome", "failed"}});
  registry.set("campaign_correction_factor", 0.93);
  registry.set("campaign_mean_abs_rel_error", 0.041);
  registry.set("runtime_measured_imbalance", 1.05, {{"workload", "cylinder"}});
  registry.observe("runtime_window_busy_seconds", 0.5,
                   {{"workload", "cylinder"}, {"rank", "0"}});
  registry.observe("runtime_window_busy_seconds", 0.375,
                   {{"workload", "cylinder"}, {"rank", "1"}});
  observe_drift(registry, "cylinder", "c5", 0.03, 5);
  observe_drift(registry, "cylinder", "c5", -0.02, 5);
  expect_golden("healthy_campaign", registry);
}

}  // namespace
}  // namespace hemo::obs
