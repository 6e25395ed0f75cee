#include "obs/watchdog.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "obs/export.hpp"
#include "obs/format.hpp"
#include "obs/log.hpp"

namespace hemo::obs {

namespace {

/// Outcome of `rule` for an observed value; nullopt means no data yet.
RuleOutcome check(const SloRule& rule, std::optional<real_t> observed) {
  RuleOutcome outcome{.rule = rule};
  if (!observed) return outcome;
  outcome.applicable = true;
  outcome.observed = *observed;
  outcome.breached = !(*observed <= rule.threshold);
  return outcome;
}

/// Largest value across workloads; nullopt when no workload has a series.
std::optional<real_t> worst(const std::map<std::string, real_t>& by_key) {
  std::optional<real_t> out;
  for (const auto& [key, value] : by_key) {
    out = out ? std::max(*out, value) : value;
  }
  return out;
}

/// `count` per attempt; nullopt until the numerator family has a series
/// and attempts are nonzero.
std::optional<real_t> per_attempt(bool present, real_t count,
                                  real_t attempts) {
  if (!present || attempts == 0.0) return std::nullopt;
  return count / attempts;
}

/// The five campaign SLOs. Thresholds mirror the repo's measured
/// envelopes: drift p99 within the calibration band, imbalance near the
/// rebalancer's target, a preemption-per-attempt rate that a spot storm
/// pushes past 0.5, and hard-failure floors that should never trip in a
/// healthy campaign.
std::vector<RuleOutcome> check_campaign_rules(const CampaignHealth& h) {
  return {
      check({"drift_p99_band", "p99(model_drift_mflups_rel_error)", 0.35,
             Health::kDegraded},
            worst(h.drift_p99)),
      check({"imbalance_ceiling", "max(runtime_measured_imbalance)", 1.5,
             Health::kDegraded},
            worst(h.imbalance)),
      check({"preemption_rate",
             "ratio(campaign_preemptions_total, campaign_attempts_total)",
             0.5, Health::kDegraded},
            per_attempt(h.has_preemptions, h.preemptions, h.attempts)),
      check({"failure_rate",
             "ratio(campaign_jobs_total{outcome=failed}, "
             "campaign_attempts_total)",
             0.25, Health::kUnhealthy},
            per_attempt(h.has_failed, h.jobs_failed, h.attempts)),
      check({"guard_stop_rate",
             "ratio(campaign_guard_stops_total, campaign_attempts_total)",
             0.25, Health::kUnhealthy},
            per_attempt(h.has_guard_stops, h.guard_stops, h.attempts)),
  };
}

}  // namespace

std::string_view health_name(Health health) noexcept {
  switch (health) {
    case Health::kOk: return "ok";
    case Health::kDegraded: return "degraded";
    case Health::kUnhealthy: return "unhealthy";
  }
  return "?";
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::on_unhealthy(std::function<void()> hook) {
  const MutexLock lock(mutex_);
  unhealthy_hook_ = std::move(hook);
}

Health Watchdog::evaluate() {
  const std::vector<RuleOutcome> outcomes =
      check_campaign_rules(campaign_health(registry_->snapshot()));
  Health overall = Health::kOk;
  for (const RuleOutcome& outcome : outcomes) {
    if (outcome.breached) overall = std::max(overall, outcome.rule.severity);
  }
  Health previous;
  {
    const MutexLock lock(mutex_);
    previous = health_;
  }

  // Export state before logging so a log-triggered scrape sees it.
  registry_->set("watchdog_health_state", static_cast<real_t>(overall));
  for (const RuleOutcome& outcome : outcomes) {
    registry_->set("watchdog_rule_breached",
                   outcome.breached ? 1.0 : 0.0,
                   {{"rule", std::string(outcome.rule.name)}});
    registry_->set("watchdog_rule_observed", outcome.observed,
                   {{"rule", std::string(outcome.rule.name)}});
  }

  std::function<void()> hook;
  {
    const MutexLock lock(mutex_);
    health_ = overall;
    outcomes_ = outcomes;
    if (overall == Health::kUnhealthy && previous != Health::kUnhealthy) {
      hook = unhealthy_hook_;
    }
  }

  if (overall != previous) {
    std::string breached;
    for (const RuleOutcome& outcome : outcomes) {
      if (!outcome.breached) continue;
      if (!breached.empty()) breached += ", ";
      breached += std::string(outcome.rule.name) + '=' + num(outcome.observed);
    }
    if (overall == Health::kUnhealthy) {
      HEMO_LOG_ERROR("watchdog: %s -> unhealthy (%s)",
                     std::string(health_name(previous)).c_str(),
                     breached.c_str());
    } else if (overall == Health::kDegraded) {
      HEMO_LOG_WARN("watchdog: %s -> degraded (%s)",
                    std::string(health_name(previous)).c_str(),
                    breached.c_str());
    } else {
      HEMO_LOG_INFO("watchdog: %s -> ok (recovered)",
                    std::string(health_name(previous)).c_str());
    }
  }
  if (hook) hook();
  return overall;
}

Health Watchdog::health() const {
  const MutexLock lock(mutex_);
  return health_;
}

std::vector<RuleOutcome> Watchdog::outcomes() const {
  const MutexLock lock(mutex_);
  return outcomes_;
}

std::string Watchdog::health_json() const {
  Health health;
  std::vector<RuleOutcome> outcomes;
  {
    const MutexLock lock(mutex_);
    health = health_;
    outcomes = outcomes_;
  }
  std::string out = "{\"status\":\"";
  out += health_name(health);
  out += "\",\"rules\":[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RuleOutcome& outcome = outcomes[i];
    if (i > 0) out += ',';
    const SloRule& rule = outcome.rule;
    // Rule names and expressions are fixed literals without quotes or
    // backslashes, so plain concatenation stays valid JSON.
    out += "\n{\"name\":\"" + std::string(rule.name) + "\",\"expr\":\"";
    out += std::string(rule.name) + ": " + std::string(rule.expr) + " <= " +
           num(rule.threshold) + " => " + std::string(health_name(rule.severity));
    out += "\",\"applicable\":";
    out += outcome.applicable ? "true" : "false";
    out += ",\"breached\":";
    out += outcome.breached ? "true" : "false";
    out += ",\"observed\":" + num(outcome.observed) + '}';
  }
  out += "\n]}\n";
  return out;
}

void Watchdog::start(real_t period_s) {
  evaluate();  // so /healthz and the watchdog_* gauges are whole at once
  const MutexLock lock(mutex_);
  if (cadence_.joinable()) return;
  stopping_ = false;
  period_s = std::clamp(period_s, 0.01, 3600.0);
  cadence_ = std::jthread([this, period_s] { cadence_loop(period_s); });
}

void Watchdog::stop() {
  std::jthread cadence;
  {
    const MutexLock lock(mutex_);
    if (!cadence_.joinable()) return;
    stopping_ = true;
    cadence = std::move(cadence_);
  }
  wake_.notify_all();
  cadence.join();
}

void Watchdog::cadence_loop(real_t period_s) {
  const auto period = std::chrono::duration<real_t>(period_s);
  while (true) {
    {
      const MutexLock lock(mutex_);
      if (stopping_) return;
      wake_.wait_for(mutex_, period);  // stop() notifies to exit promptly
      if (stopping_) return;
    }
    evaluate();
  }
}

}  // namespace hemo::obs
