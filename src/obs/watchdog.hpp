// SLO watchdog over MetricsRegistry snapshots.
//
// evaluate() folds one snapshot into obs::CampaignHealth (the same fold
// `/status` renders) and checks the five fixed campaign rules of
// DESIGN.md §14 against it: model-drift p99 band, runtime imbalance
// ceiling, and the preemption, failure and guard-stop rates per attempt.
// A rule without data (no series of its family, or zero attempts under a
// ratio) is *inapplicable* and reports ok: SLOs only bind once there is
// data. Breached severities fold into an overall Health
// (ok < degraded < unhealthy).
//
// Transitions are logged (WARN on degradation, ERROR on unhealthy, INFO
// on recovery), exported as `watchdog_*` gauges, and surfaced through
// /healthz by obs::TelemetryServer. start() runs evaluate() on a cadence
// thread (CondVar::wait_for so stop() interrupts the sleep immediately);
// on_unhealthy() registers a hook the flight recorder uses to dump state
// at the moment an SLO goes red.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <thread>  // sync-ok(cadence jthread; lifecycle guarded by mutex_)
#include <vector>

#include "obs/metrics.hpp"
#include "util/sync.hpp"

namespace hemo::obs {

enum class Health { kOk = 0, kDegraded = 1, kUnhealthy = 2 };

[[nodiscard]] std::string_view health_name(Health health) noexcept;

/// One of the watchdog's fixed campaign rules: breached when its
/// observed value exceeds `threshold`.
struct SloRule {
  std::string_view name;  ///< stable identifier ("drift_p99_band")
  std::string_view expr;  ///< the bounded aggregate, as /healthz shows it
  real_t threshold = 0.0;
  Health severity = Health::kDegraded;  ///< reported when breached
};

/// Outcome of one rule against one snapshot.
struct RuleOutcome {
  SloRule rule;
  bool applicable = false;  ///< the rule's series have data
  bool breached = false;
  real_t observed = 0.0;  ///< aggregated value (0 when inapplicable)
};

class Watchdog {
 public:
  explicit Watchdog(MetricsRegistry& registry) : registry_(&registry) {}
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a hook invoked (on the evaluating thread) each time the
  /// overall health *transitions into* kUnhealthy.
  void on_unhealthy(std::function<void()> hook) HEMO_EXCLUDES(mutex_);

  /// Evaluates every rule against a fresh registry snapshot, updates the
  /// cached health + `watchdog_*` gauges, and logs transitions.
  Health evaluate() HEMO_EXCLUDES(mutex_);

  /// Health and per-rule outcomes of the most recent evaluate().
  [[nodiscard]] Health health() const HEMO_EXCLUDES(mutex_);
  [[nodiscard]] std::vector<RuleOutcome> outcomes() const
      HEMO_EXCLUDES(mutex_);

  /// JSON body served at /healthz: overall state + per-rule outcomes.
  [[nodiscard]] std::string health_json() const HEMO_EXCLUDES(mutex_);

  /// Evaluates once, then runs evaluate() every `period_s` seconds on a
  /// cadence thread until stop(). Starting a running watchdog only
  /// evaluates.
  void start(real_t period_s = 1.0) HEMO_EXCLUDES(mutex_);
  void stop() HEMO_EXCLUDES(mutex_);

 private:
  void cadence_loop(real_t period_s) HEMO_EXCLUDES(mutex_);

  MetricsRegistry* registry_;
  mutable Mutex mutex_;
  CondVar wake_;  ///< signaled by stop() to cut the cadence sleep short
  bool stopping_ HEMO_GUARDED_BY(mutex_) = false;
  std::function<void()> unhealthy_hook_ HEMO_GUARDED_BY(mutex_);
  Health health_ HEMO_GUARDED_BY(mutex_) = Health::kOk;
  std::vector<RuleOutcome> outcomes_ HEMO_GUARDED_BY(mutex_);
  std::jthread cadence_ HEMO_GUARDED_BY(mutex_);
};

}  // namespace hemo::obs
