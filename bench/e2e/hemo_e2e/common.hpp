// Shared pieces of hemo_e2e, the end-to-end benchmark program: run options, the
// result record, layer spans, order statistics and host facts.
//
// The program times every layer from the outside, around calls into that
// layer's public functions; nothing here reaches into src/ internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace e2e {

using hemo::index_t;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured loop
  bool trace = false;     ///< per-layer run: spans, probes, profiler
  bool smoke = false;     ///< tiny inputs through every path
  bool self_test = false; ///< perturb each output check and expect failure
  std::string out_dir = ".";  ///< trace.json and checkpoint scratch files
};

/// Everything one run reports. Metric names follow BENCHMARK.json.
class Result {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool passed = false;
    std::string detail;
  };
  /// Within-run samples behind one metric (median, min, max, n).
  struct Samples {
    double median = 0.0, min = 0.0, max = 0.0;
    index_t n = 0;
  };

  void metric(const std::string& name, double value, const std::string& unit);
  void samples(const std::string& name, const std::vector<double>& values);
  void output(const std::string& name, const std::string& value);
  /// Records an output check; a failed check marks the run incorrect.
  void check(const std::string& name, bool passed,
             const std::string& detail = "");
  /// One line showing how layer times add up to an end-to-end time.
  void layer_sum(const std::string& line);

  [[nodiscard]] bool correct() const;
  [[nodiscard]] std::string to_json(const Options& options) const;

  index_t attempted = 0;  ///< timed operations (chunks or campaigns)
  index_t failed = 0;     ///< operations whose output check failed
  index_t threads = 0;    ///< busy threads the workload runs

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Samples> samples_;
  std::map<std::string, std::string> outputs_;
  std::vector<Check> checks_;
  std::vector<std::string> layer_sums_;
};

/// Layer spans recorded by the program around its calls into the library:
/// name, start, end and parent. Durations are always measured (the setup
/// metrics need them); spans are kept only when tracing.
class Tracer {
 public:
  explicit Tracer(bool keep);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer& tracer, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Ends the span (idempotent) and returns its length in seconds.
    double close();

   private:
    Tracer* tracer_;
    std::string name_;
    Clock::time_point start_;
    bool open_ = true;
    double seconds_ = 0.0;
  };

  /// Chrome trace-event JSON; each span carries its parent and self time
  /// (its length minus the part its child spans cover).
  void write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };
  bool keep_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;  ///< indices of the open spans, innermost last
};

/// Order statistics over a copy of `values` (linear interpolation).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Host speed: a shared cloud host slows our cores down for seconds to
/// minutes at a time while its neighbours are busy. A fixed reference
/// kernel, run right next to each timed operation, measures that drift so
/// it can be divided out of the end-to-end metrics. The kernel is a
/// throughput-bound floating-point loop over an L2-resident array, on the
/// calling thread when `threads` is 1 and otherwise on each of `threads`
/// freshly started threads (the way ParallelSolver::run starts its ranks).
/// The result is nominal time over measured time, the median of `reps`
/// repetitions: 1 on an unloaded host of the kind the baseline was recorded
/// on, below 1 while it is loaded.
[[nodiscard]] double host_speed(index_t threads, int reps = 1);

/// Host speed as a coordinator that hands short tasks to a pool of
/// `workers` threads, one at a time, and waits for each sees it: arithmetic
/// plus the wake-ups of a parked worker and of the waiting coordinator. On
/// a virtual machine those wake-ups vary with the host's load far more than
/// arithmetic does. Nominal time over measured time, like host_speed.
[[nodiscard]] double handoff_speed(index_t workers);

/// Returns the allocator's free pages to the system (malloc_trim), so each
/// set-up starts from the same allocator state and pays its own page
/// faults, as a fresh `hemocloud_cli` process does.
void release_free_memory();

/// Resident set size of this process (VmRSS), MiB, after returning the
/// allocator's free pages to the system: how many arenas the worker threads
/// happened to touch then no longer moves the number.
[[nodiscard]] double resident_mib();

/// Last-level cache size in bytes (0 when the host does not say).
[[nodiscard]] std::int64_t llc_bytes();

/// Online CPUs.
[[nodiscard]] index_t nproc();

/// `v` with `precision` significant digits, for human-readable lines.
[[nodiscard]] std::string fmt(double v, int precision = 4);

/// FNV-1a 64-bit digest of a byte range, as 16 hex digits.
[[nodiscard]] std::string digest_hex(const void* data, std::size_t bytes);

/// Workload entry points (cyl.cpp, campaign.cpp).
bool is_cyl_workload(const std::string& name);
bool is_campaign_workload(const std::string& name);
void run_cyl(const Options& options, Result& result);
void run_campaign(const Options& options, Result& result);
/// Each output check fails on its own perturbation and passes without it.
void self_test_cyl(Result& result);
void self_test_campaign(Result& result);

}  // namespace e2e
