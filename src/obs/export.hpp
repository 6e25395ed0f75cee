// Serialization of MetricsRegistry snapshots for the live telemetry plane.
//
// Two wire formats over the same canonical snapshot:
//
//  * Prometheus text exposition (version 0.0.4): one `# HELP` / `# TYPE`
//    header per metric family, label values escaped per the spec
//    (backslash, double quote, newline), histograms rendered as
//    *cumulative* `_bucket{le="..."}` series closed by the mandatory
//    `le="+Inf"` bucket plus `_sum` / `_count`. Families are emitted in
//    sorted-name order and series within a family in canonical key order,
//    so the same recorded values always render identical bytes — which is
//    what lets tests/test_obs_live.cpp golden-compare `/metrics` output.
//
//  * JSON: one object per series (the JSONL `--metrics` file format, also
//    re-used line-by-line by MetricsRegistry::to_jsonl) and a whole-
//    snapshot `{"metrics":[...]}` document served at `/metrics.json`.
//    Histogram objects carry the cumulative bucket array (Prometheus
//    semantics, `le` rendered as a string so `"+Inf"` stays valid JSON).
//
// parse_metrics_jsonl() inverts the JSONL format so `hemocloud_cli
// metrics` can re-render a saved snapshot as a table or as Prometheus
// text; glob_match()/series_matches() implement the CLI's
// `--filter 'name{label=...}'` selection. campaign_health() folds a
// snapshot into the campaign-health summary that `/status` and the
// watchdog's `/healthz` rules share.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace hemo::obs {

/// One cumulative histogram bucket: count of observations <= `le`
/// (`inf` marks the final +Inf bucket, whose count equals the total).
struct CumulativeBucket {
  real_t le = 0.0;
  bool inf = false;
  std::uint64_t count = 0;
};

/// Cumulative (Prometheus-semantics) view of a histogram's per-bucket
/// counts, closed by the +Inf bucket. Empty when the histogram is empty.
[[nodiscard]] std::vector<CumulativeBucket> cumulative_buckets(
    const HistogramData& histogram);

/// Prometheus text exposition of a snapshot (deterministic bytes).
[[nodiscard]] std::string to_prometheus(
    const std::vector<MetricSnapshot>& snapshots);
[[nodiscard]] std::string to_prometheus(const MetricsRegistry& registry);

/// One series as a single-line JSON object (no trailing newline). This is
/// the line format of MetricsRegistry::to_jsonl.
[[nodiscard]] std::string metric_json_object(const MetricSnapshot& snapshot);

/// Whole snapshot as one JSON document: {"metrics":[...],"series":N}.
[[nodiscard]] std::string to_metrics_json(
    const std::vector<MetricSnapshot>& snapshots);
[[nodiscard]] std::string to_metrics_json(const MetricsRegistry& registry);

/// Glob match with `*` (any run) and `?` (any one char); everything else
/// is literal. Deterministic backtracking matcher, no regex dependency.
[[nodiscard]] bool glob_match(std::string_view pattern,
                              std::string_view text);

/// True when `pattern` selects this series. A pattern without '{' matches
/// against the bare metric name (so `campaign_*` selects every labeled
/// series of those families); a pattern with '{' matches against the full
/// canonical key `name{k1=v1,k2=v2}`.
[[nodiscard]] bool series_matches(std::string_view pattern,
                                  const MetricSnapshot& snapshot);

/// Parses a JSONL snapshot (the `--metrics` file format) back into
/// MetricSnapshot records, reconstructing histogram bucket ladders from
/// the cumulative bucket array. Lines that are not metric objects are
/// skipped; malformed numeric fields throw NumericError.
[[nodiscard]] std::vector<MetricSnapshot> parse_metrics_jsonl(
    std::string_view text);

/// Campaign/runtime health, folded once from a snapshot: `/status`
/// renders it and the watchdog's rules read it (DESIGN.md §14), so both
/// surfaces agree on which series make up campaign health.
struct CampaignHealth {
  real_t jobs_completed = 0.0;  ///< campaign_jobs_total{outcome=completed}
  real_t jobs_failed = 0.0;     ///< every other campaign_jobs_total outcome
  real_t attempts = 0.0;
  real_t requeues = 0.0;
  real_t preemptions = 0.0;
  real_t guard_stops = 0.0;
  real_t worker_crashes = 0.0;
  real_t correction_factor = 1.0;
  real_t mean_abs_rel_error = 0.0;
  /// Whether the family has any series at all: a ratio rule binds only
  /// once its numerator has data.
  bool has_failed = false;
  bool has_preemptions = false;
  bool has_guard_stops = false;
  std::map<std::string, real_t> imbalance;          ///< workload -> gauge
  std::map<std::string, real_t> rank_busy_seconds;  ///< rank -> summed busy
  std::map<std::string, real_t> drift_p99;  ///< workload -> worst series p99
  std::size_t series = 0;                   ///< series in the snapshot
};

[[nodiscard]] CampaignHealth campaign_health(
    const std::vector<MetricSnapshot>& snapshots);

/// JSON body served at `/status` (without the server's request counter).
[[nodiscard]] std::string status_json(const CampaignHealth& health);
[[nodiscard]] std::string status_json(const MetricsRegistry& registry);

}  // namespace hemo::obs
