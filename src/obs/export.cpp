#include "obs/export.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "obs/format.hpp"

namespace hemo::obs {

namespace {

std::string num_u64(std::uint64_t value) { return std::to_string(value); }

/// Prometheus label-value escaping: backslash, double quote, newline.
void append_prom_label_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// HELP-text escaping: backslash and newline only (quotes stay literal).
void append_prom_help_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

const char* prom_type_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Help strings for the core metric families; anything unknown gets a
/// generic line (HELP is informative only — the golden test pins the
/// fallback too, so additions here are deliberate).
std::string_view metric_help(std::string_view name) {
  struct Entry {
    std::string_view name, help;
  };
  static constexpr Entry kTable[] = {
      {"campaign_jobs_total", "Jobs reaching a terminal state, by outcome."},
      {"campaign_attempts_total", "Placed attempts, by instance and tenancy."},
      {"campaign_preemptions_total", "Spot capacity reclaims mid-attempt."},
      {"campaign_requeues_total", "Stopped attempts settled back into the queue."},
      {"campaign_guard_stops_total", "Overrun-guard hard stops."},
      {"campaign_worker_crashes_total", "Worker deaths mid-attempt."},
      {"campaign_correction_factor", "Refinement tracker correction factor."},
      {"campaign_mean_abs_rel_error", "Mean |predicted-measured|/measured."},
      {"campaign_attempt_occupancy_seconds",
       "Paid allocation seconds per attempt."},
      {"runtime_measured_imbalance", "Window max/mean busy-time imbalance."},
      {"runtime_window_busy_seconds", "Per-rank busy seconds per window."},
      {"model_drift_mflups_rel_error",
       "(predicted-measured)/measured MFLUPS, per refinement round."},
      {"watchdog_health_state", "SLO health: 0 ok, 1 degraded, 2 unhealthy."},
      {"telemetry_http_requests_total", "HTTP requests served, by path."},
      {"profile_phase_self_seconds", "Sampled self time per profiler phase."},
  };
  for (const Entry& e : kTable) {
    if (e.name == name) return e.help;
  }
  return "hemocloud metric.";
}

/// `{a="x",b="y"}` (empty string when unlabeled); `extra` appends one more
/// pre-rendered pair (the histogram `le`).
std::string prom_label_block(const Labels& labels,
                             const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    append_prom_label_escaped(out, value);
    out += '"';
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

}  // namespace

std::vector<CumulativeBucket> cumulative_buckets(
    const HistogramData& histogram) {
  std::vector<CumulativeBucket> out;
  if (histogram.buckets.empty()) return out;
  out.reserve(histogram.buckets.size());
  std::uint64_t running = 0;
  for (std::size_t b = 0; b < histogram.buckets.size(); ++b) {
    running += histogram.buckets[b];
    CumulativeBucket bucket;
    bucket.inf = b >= histogram.edges.size();
    bucket.le = bucket.inf ? 0.0 : histogram.edges[b];
    bucket.count = running;
    out.push_back(bucket);
  }
  return out;
}

std::string to_prometheus(const std::vector<MetricSnapshot>& snapshots) {
  // Group series into families: Prometheus requires every series of a
  // family contiguous under one TYPE header. The canonical key order
  // interleaves families ("foo_bar" sorts between "foo" and "foo{a=1}"),
  // so regroup by (name, kind) — map order keeps the bytes deterministic.
  std::map<std::pair<std::string, MetricKind>,
           std::vector<const MetricSnapshot*>>
      families;
  for (const MetricSnapshot& snap : snapshots) {
    families[{snap.name, snap.kind}].push_back(&snap);
  }

  std::string out;
  for (const auto& [family, series] : families) {
    const auto& [name, kind] = family;
    out += "# HELP " + name + ' ';
    append_prom_help_escaped(out, metric_help(name));
    out += '\n';
    out += "# TYPE " + name + ' ';
    out += prom_type_name(kind);
    out += '\n';
    for (const MetricSnapshot* snap : series) {
      if (kind != MetricKind::kHistogram) {
        out += name + prom_label_block(snap->labels) + ' ' +
               num(snap->value) + '\n';
        continue;
      }
      for (const CumulativeBucket& bucket :
           cumulative_buckets(snap->histogram)) {
        const std::string le =
            bucket.inf ? std::string("+Inf") : num(bucket.le);
        out += name + "_bucket" +
               prom_label_block(snap->labels, "le=\"" + le + "\"") + ' ' +
               num_u64(bucket.count) + '\n';
      }
      out += name + "_sum" + prom_label_block(snap->labels) + ' ' +
             num(snap->histogram.sum) + '\n';
      out += name + "_count" + prom_label_block(snap->labels) + ' ' +
             num_u64(snap->histogram.count) + '\n';
    }
  }
  return out;
}

std::string to_prometheus(const MetricsRegistry& registry) {
  return to_prometheus(registry.snapshot());
}

std::string metric_json_object(const MetricSnapshot& snap) {
  std::string out = "{\"name\":\"";
  append_json_escaped(out, snap.name);
  out += "\",\"labels\":{";
  for (std::size_t i = 0; i < snap.labels.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    append_json_escaped(out, snap.labels[i].first);
    out += "\":\"";
    append_json_escaped(out, snap.labels[i].second);
    out += '"';
  }
  out += "},\"type\":\"";
  out += prom_type_name(snap.kind);
  out += '"';
  if (snap.kind == MetricKind::kHistogram) {
    const HistogramData& h = snap.histogram;
    out += ",\"count\":" + num_u64(h.count);
    out += ",\"sum\":" + num(h.sum);
    out += ",\"min\":" + num(h.min);
    out += ",\"max\":" + num(h.max);
    out += ",\"p50\":" + num(h.quantile(0.50));
    out += ",\"p90\":" + num(h.quantile(0.90));
    out += ",\"p99\":" + num(h.quantile(0.99));
    // Cumulative counts (Prometheus semantics), `le` as a string so the
    // closing +Inf bucket stays valid JSON.
    out += ",\"buckets\":[";
    bool first = true;
    for (const CumulativeBucket& bucket : cumulative_buckets(h)) {
      if (!first) out += ',';
      first = false;
      out += "{\"le\":\"";
      out += bucket.inf ? std::string("+Inf") : num(bucket.le);
      out += "\",\"count\":" + num_u64(bucket.count) + '}';
    }
    out += ']';
  } else {
    out += ",\"value\":" + num(snap.value);
  }
  out += '}';
  return out;
}

std::string to_metrics_json(const std::vector<MetricSnapshot>& snapshots) {
  std::string out = "{\"metrics\":[";
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (i > 0) out += ',';
    out += '\n';
    out += metric_json_object(snapshots[i]);
  }
  out += "\n],\"series\":" + std::to_string(snapshots.size()) + "}\n";
  return out;
}

std::string to_metrics_json(const MetricsRegistry& registry) {
  return to_metrics_json(registry.snapshot());
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative star-backtracking: linear in |text| * stars.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool series_matches(std::string_view pattern, const MetricSnapshot& snap) {
  if (pattern.empty()) return true;
  if (pattern.find('{') == std::string_view::npos) {
    return glob_match(pattern, snap.name);
  }
  return glob_match(pattern, snap.key());
}

namespace {

/// Targeted scans over one JSONL line of our own format (no general JSON
/// parser needed — the emitter above fixes the field shapes).
std::string json_string_field(std::string_view line, std::string_view key) {
  std::string tag = "\"";
  tag += key;
  tag += "\":\"";
  const auto pos = line.find(tag);
  if (pos == std::string_view::npos) return "";
  std::string out;
  for (std::size_t i = pos + tag.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      const char next = line[++i];
      out += next == 'n' ? '\n' : next;  // \uXXXX beyond \n not round-tripped
    } else if (line[i] == '"') {
      break;
    } else {
      out += line[i];
    }
  }
  return out;
}

real_t json_number_field(std::string_view line, std::string_view key,
                         real_t fallback) {
  std::string tag = "\"";
  tag += key;
  tag += "\":";
  const auto pos = line.find(tag);
  if (pos == std::string_view::npos) return fallback;
  const std::string text(line.substr(pos + tag.size(), 40));
  char* end = nullptr;
  const real_t value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) {
    throw NumericError("metrics JSONL: malformed number for field \"" +
                       std::string(key) + '"');
  }
  return value;
}

Labels parse_labels(std::string_view line) {
  Labels labels;
  const std::string_view open = "\"labels\":{";
  const auto start = line.find(open);
  if (start == std::string_view::npos) return labels;
  std::size_t i = start + open.size();
  while (i < line.size() && line[i] != '}') {
    if (line[i] == ',') {
      ++i;
      continue;
    }
    // "key":"value"
    HEMO_REQUIRE(line[i] == '"', "metrics JSONL: malformed labels object");
    std::string key, value;
    for (++i; i < line.size() && line[i] != '"'; ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;
      key += line[i];
    }
    i += 3;  // skip `":"`
    for (; i < line.size() && line[i] != '"'; ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) ++i;
      value += line[i];
    }
    ++i;  // closing quote
    labels.emplace_back(std::move(key), std::move(value));
  }
  return labels;
}

/// Rebuilds edges + per-bucket counts from the cumulative bucket array.
HistogramData parse_histogram(std::string_view line) {
  HistogramData h;
  h.count = static_cast<std::uint64_t>(json_number_field(line, "count", 0));
  h.sum = json_number_field(line, "sum", 0.0);
  h.min = json_number_field(line, "min", 0.0);
  h.max = json_number_field(line, "max", 0.0);
  const std::string_view open = "\"buckets\":[";
  auto pos = line.find(open);
  if (pos == std::string_view::npos) return h;
  pos += open.size();
  const auto close = line.find(']', pos);
  std::uint64_t previous = 0;
  while (pos < close) {
    const auto entry_end = std::min(line.find('}', pos) + 1, close);
    const std::string_view entry = line.substr(pos, entry_end - pos);
    const std::string le = json_string_field(entry, "le");
    const auto cumulative = static_cast<std::uint64_t>(
        json_number_field(entry, "count", 0));
    HEMO_REQUIRE(cumulative >= previous,
                 "metrics JSONL: bucket counts must be cumulative");
    if (le != "+Inf") {
      char* end = nullptr;
      h.edges.push_back(std::strtod(le.c_str(), &end));
    }
    h.buckets.push_back(cumulative - previous);
    previous = cumulative;
    pos = entry_end;
    while (pos < close && (line[pos] == ',' || line[pos] == ' ')) ++pos;
  }
  return h;
}

}  // namespace

std::vector<MetricSnapshot> parse_metrics_jsonl(std::string_view text) {
  std::vector<MetricSnapshot> out;
  std::size_t start = 0;
  while (start < text.size()) {
    auto end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    MetricSnapshot snap;
    snap.name = json_string_field(line, "name");
    if (snap.name.empty()) continue;
    snap.labels = parse_labels(line);
    const std::string type = json_string_field(line, "type");
    if (type == "histogram") {
      snap.kind = MetricKind::kHistogram;
      snap.histogram = parse_histogram(line);
    } else {
      snap.kind = type == "gauge" ? MetricKind::kGauge : MetricKind::kCounter;
      snap.value = json_number_field(line, "value", 0.0);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

void append_json_map_entry(std::string& out, bool& first,
                           std::string_view key, const std::string& value) {
  if (!first) out += ',';
  first = false;
  out += '"';
  append_json_escaped(out, key);
  out += "\":";
  out += value;
}

}  // namespace

CampaignHealth campaign_health(const std::vector<MetricSnapshot>& snapshots) {
  CampaignHealth h;
  h.series = snapshots.size();
  for (const MetricSnapshot& snap : snapshots) {
    const auto label = [&snap](std::string_view key) {
      for (const auto& [k, v] : snap.labels) {
        if (k == key) return v;
      }
      return std::string();
    };
    if (snap.name == "campaign_jobs_total") {
      if (label("outcome") == "completed") {
        h.jobs_completed += snap.value;
      } else {
        h.jobs_failed += snap.value;
        h.has_failed = true;
      }
    } else if (snap.name == "campaign_attempts_total") {
      h.attempts += snap.value;
    } else if (snap.name == "campaign_requeues_total") {
      h.requeues += snap.value;
    } else if (snap.name == "campaign_preemptions_total") {
      h.preemptions += snap.value;
      h.has_preemptions = true;
    } else if (snap.name == "campaign_guard_stops_total") {
      h.guard_stops += snap.value;
      h.has_guard_stops = true;
    } else if (snap.name == "campaign_worker_crashes_total") {
      h.worker_crashes += snap.value;
    } else if (snap.name == "campaign_correction_factor") {
      h.correction_factor = snap.value;
    } else if (snap.name == "campaign_mean_abs_rel_error") {
      h.mean_abs_rel_error = snap.value;
    } else if (snap.name == "runtime_measured_imbalance") {
      h.imbalance[label("workload")] = snap.value;
    } else if (snap.name == "runtime_window_busy_seconds") {
      h.rank_busy_seconds[label("rank")] += snap.histogram.sum;
    } else if (snap.name == "model_drift_mflups_rel_error" &&
               snap.histogram.count > 0) {
      // Worst series per workload: one bad instance must not hide behind
      // healthy siblings. The first series seeds the entry, so a workload
      // that only drifts below zero reports its (negative) worst p99.
      const real_t p99 = snap.histogram.quantile(0.99);
      const auto [it, inserted] = h.drift_p99.emplace(label("workload"), p99);
      if (!inserted) it->second = std::max(it->second, p99);
    }
  }
  return h;
}

std::string status_json(const CampaignHealth& h) {
  std::string out = "{\"campaign\":{";
  bool first = true;
  append_json_map_entry(out, first, "jobs_completed", num(h.jobs_completed));
  append_json_map_entry(out, first, "jobs_failed", num(h.jobs_failed));
  append_json_map_entry(out, first, "attempts", num(h.attempts));
  append_json_map_entry(out, first, "requeues", num(h.requeues));
  append_json_map_entry(out, first, "preemptions", num(h.preemptions));
  append_json_map_entry(out, first, "guard_stops", num(h.guard_stops));
  append_json_map_entry(out, first, "worker_crashes", num(h.worker_crashes));
  append_json_map_entry(out, first, "correction_factor",
                        num(h.correction_factor));
  append_json_map_entry(out, first, "mean_abs_rel_error",
                        num(h.mean_abs_rel_error));
  out += "},\"runtime\":{\"imbalance\":{";
  first = true;
  for (const auto& [workload, value] : h.imbalance) {
    append_json_map_entry(out, first, workload, num(value));
  }
  out += "},\"rank_busy_seconds\":{";
  first = true;
  for (const auto& [rank, value] : h.rank_busy_seconds) {
    append_json_map_entry(out, first, rank, num(value));
  }
  out += "}},\"model_drift_p99\":{";
  first = true;
  for (const auto& [workload, value] : h.drift_p99) {
    append_json_map_entry(out, first, workload, num(value));
  }
  out += "},\"series\":" + std::to_string(h.series) + "}\n";
  return out;
}

std::string status_json(const MetricsRegistry& registry) {
  return status_json(campaign_health(registry.snapshot()));
}

}  // namespace hemo::obs
