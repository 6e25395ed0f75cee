#include "obs/watchdog.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/export.hpp"
#include "obs/format.hpp"
#include "obs/log.hpp"

namespace hemo::obs {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

bool is_quantile(std::string_view agg) {
  return agg == "p50" || agg == "p90" || agg == "p99";
}

real_t quantile_of(std::string_view agg) {
  if (agg == "p50") return 0.50;
  if (agg == "p90") return 0.90;
  return 0.99;
}

/// Sum of counter/gauge values plus histogram sums across matched series.
real_t selector_sum(const std::vector<MetricSnapshot>& snapshots,
                    std::string_view selector, std::size_t* matched) {
  real_t total = 0.0;
  for (const MetricSnapshot& snap : snapshots) {
    if (!series_matches(selector, snap)) continue;
    ++*matched;
    total += snap.kind == MetricKind::kHistogram ? snap.histogram.sum
                                                 : snap.value;
  }
  return total;
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

std::string SloRule::to_string() const {
  std::string out = name + ": " + aggregate + '(' + selector;
  if (!denominator.empty()) out += ", " + denominator;
  out += ") " + op + ' ' + num(threshold) + " => ";
  out += health_name(severity);
  return out;
}

SloRule parse_slo_rule(std::string_view line) {
  const auto fail = [&line](const std::string& what) -> NumericError {
    return NumericError("SLO rule \"" + std::string(line) + "\": " + what);
  };

  SloRule rule;
  const auto colon = line.find(':');
  if (colon == std::string_view::npos) throw fail("missing `name:`");
  rule.name = std::string(trim(line.substr(0, colon)));
  if (rule.name.empty()) throw fail("empty rule name");

  std::string_view rest = trim(line.substr(colon + 1));
  const auto open = rest.find('(');
  const auto close = rest.find(')', open);
  if (open == std::string_view::npos || close == std::string_view::npos) {
    throw fail("expected agg(selector)");
  }
  rule.aggregate = std::string(trim(rest.substr(0, open)));
  static constexpr std::string_view kAggs[] = {
      "value", "sum", "count", "min", "max",
      "mean",  "p50", "p90",   "p99", "ratio"};
  if (std::find(std::begin(kAggs), std::end(kAggs), rule.aggregate) ==
      std::end(kAggs)) {
    throw fail("unknown aggregate `" + rule.aggregate + '`');
  }
  std::string_view inside = rest.substr(open + 1, close - open - 1);
  if (rule.aggregate == "ratio") {
    const auto comma = inside.find(',');
    if (comma == std::string_view::npos) {
      throw fail("ratio() needs two selectors");
    }
    rule.selector = std::string(trim(inside.substr(0, comma)));
    rule.denominator = std::string(trim(inside.substr(comma + 1)));
    if (rule.denominator.empty()) throw fail("empty ratio denominator");
  } else {
    if (inside.find(',') != std::string_view::npos) {
      throw fail(rule.aggregate + "() takes one selector");
    }
    rule.selector = std::string(trim(inside));
  }
  if (rule.selector.empty()) throw fail("empty selector");

  rest = trim(rest.substr(close + 1));
  const auto space = rest.find(' ');
  if (space == std::string_view::npos) throw fail("expected `op threshold`");
  rule.op = std::string(trim(rest.substr(0, space)));
  if (rule.op != "<" && rule.op != "<=" && rule.op != ">" &&
      rule.op != ">=") {
    throw fail("unknown comparison `" + rule.op + '`');
  }

  rest = trim(rest.substr(space + 1));
  const auto arrow = rest.find("=>");
  if (arrow == std::string_view::npos) throw fail("missing `=> severity`");
  const std::string threshold_text(trim(rest.substr(0, arrow)));
  char* end = nullptr;
  rule.threshold = std::strtod(threshold_text.c_str(), &end);
  if (end == threshold_text.c_str() || *end != '\0') {
    throw fail("malformed threshold `" + threshold_text + '`');
  }

  const std::string_view severity = trim(rest.substr(arrow + 2));
  if (severity == "degraded") {
    rule.severity = Health::kDegraded;
  } else if (severity == "unhealthy") {
    rule.severity = Health::kUnhealthy;
  } else {
    throw fail("severity must be `degraded` or `unhealthy`");
  }
  return rule;
}

std::vector<SloRule> default_campaign_rules() {
  // The thresholds mirror the repo's measured envelopes: drift p99 within
  // the calibration band, imbalance near the rebalancer's target, a
  // preemption-per-attempt rate that a spot storm pushes past 1, and
  // hard-failure floors that should never trip in a healthy campaign.
  static constexpr const char* kRules[] = {
      "drift_p99_band: p99(model_drift_mflups_rel_error) <= 0.35 "
      "=> degraded",
      "imbalance_ceiling: max(runtime_measured_imbalance) <= 1.5 "
      "=> degraded",
      "preemption_rate: ratio(campaign_preemptions_total, "
      "campaign_attempts_total) <= 0.5 => degraded",
      "failure_rate: ratio(campaign_jobs_total{outcome=failed}, "
      "campaign_attempts_total) <= 0.25 => unhealthy",
      "guard_stop_rate: ratio(campaign_guard_stops_total, "
      "campaign_attempts_total) <= 0.25 => unhealthy",
  };
  std::vector<SloRule> rules;
  rules.reserve(std::size(kRules));
  for (const char* line : kRules) rules.push_back(parse_slo_rule(line));
  return rules;
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::set_rules(std::vector<SloRule> rules) {
  const MutexLock lock(mutex_);
  rules_ = std::move(rules);
}

std::vector<SloRule> Watchdog::rules() const {
  const MutexLock lock(mutex_);
  return rules_;
}

void Watchdog::on_unhealthy(std::function<void()> hook) {
  const MutexLock lock(mutex_);
  unhealthy_hook_ = std::move(hook);
}

Health Watchdog::evaluate() {
  const std::vector<MetricSnapshot> snapshots = registry_->snapshot();

  std::vector<SloRule> rules;
  Health previous;
  {
    const MutexLock lock(mutex_);
    rules = rules_;
    previous = health_;
  }

  std::vector<RuleOutcome> outcomes;
  outcomes.reserve(rules.size());
  Health overall = Health::kOk;
  for (const SloRule& rule : rules) {
    RuleOutcome outcome;
    outcome.rule = rule;
    std::size_t matched = 0;
    if (rule.aggregate == "ratio") {
      std::size_t denom_matched = 0;
      const real_t numerator =
          selector_sum(snapshots, rule.selector, &matched);
      const real_t denominator =
          selector_sum(snapshots, rule.denominator, &denom_matched);
      outcome.applicable = matched > 0 && denominator != 0.0;
      if (outcome.applicable) outcome.observed = numerator / denominator;
    } else if (is_quantile(rule.aggregate)) {
      // Worst (largest) quantile across matched histogram series: one bad
      // instance must not hide behind healthy siblings.
      const real_t q = quantile_of(rule.aggregate);
      for (const MetricSnapshot& snap : snapshots) {
        if (snap.kind != MetricKind::kHistogram) continue;
        if (!series_matches(rule.selector, snap)) continue;
        if (snap.histogram.count == 0) continue;
        const real_t value = snap.histogram.quantile(q);
        outcome.observed =
            matched == 0 ? value : std::max(outcome.observed, value);
        ++matched;
      }
      outcome.applicable = matched > 0;
    } else {
      bool first = true;
      for (const MetricSnapshot& snap : snapshots) {
        if (!series_matches(rule.selector, snap)) continue;
        const real_t value = snap.kind == MetricKind::kHistogram
                                 ? snap.histogram.sum
                                 : snap.value;
        ++matched;
        if (rule.aggregate == "count") continue;
        if (rule.aggregate == "min") {
          outcome.observed = first ? value : std::min(outcome.observed, value);
        } else if (rule.aggregate == "max" || rule.aggregate == "value") {
          outcome.observed = first ? value : std::max(outcome.observed, value);
        } else {  // sum / mean accumulate
          outcome.observed += value;
        }
        first = false;
      }
      outcome.applicable = matched > 0;
      if (rule.aggregate == "count") {
        outcome.observed = static_cast<real_t>(matched);
        outcome.applicable = true;  // "no series" is a meaningful count
      } else if (rule.aggregate == "mean" && matched > 0) {
        outcome.observed /= static_cast<real_t>(matched);
      }
    }

    if (outcome.applicable) {
      const real_t v = outcome.observed, t = rule.threshold;
      const bool ok = rule.op == "<"    ? v < t
                      : rule.op == "<=" ? v <= t
                      : rule.op == ">"  ? v > t
                                        : v >= t;
      outcome.breached = !ok;
      if (outcome.breached) overall = std::max(overall, rule.severity);
    }
    outcomes.push_back(std::move(outcome));
  }

  // Export state before logging so a log-triggered scrape sees it.
  registry_->set("watchdog_health_state", static_cast<real_t>(overall));
  for (const RuleOutcome& outcome : outcomes) {
    registry_->set("watchdog_rule_breached",
                   outcome.breached ? 1.0 : 0.0,
                   {{"rule", outcome.rule.name}});
    registry_->set("watchdog_rule_observed", outcome.observed,
                   {{"rule", outcome.rule.name}});
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
      breached += outcome.rule.name + '=' + num(outcome.observed);
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
    out += "\n{\"name\":\"" + outcome.rule.name + "\",\"expr\":\"";
    // Rule text comes from the parsed grammar (no quotes/backslashes
    // survive parsing), so plain concatenation stays valid JSON.
    out += outcome.rule.to_string();
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
