// Chrome-trace-event / Perfetto-compatible tracing with two clock domains.
//
// The campaign engine runs on *virtual* time (sched/executor.hpp): its
// coordinator advances a deterministic event clock, so spans stamped with
// that clock are a pure function of the campaign seed — byte-stable across
// worker counts, which extends the PR-1 determinism contract from the CSV
// report to the trace itself (tests/test_obs.cpp asserts it). Real work —
// rank steps, solver steps, coordinator passes, calibration sweeps,
// microbenches — is recorded by obs::Phase (obs/profile.hpp) on the wall
// clock instead; the two domains are kept on separate trace "processes"
// (pid 1 = virtual campaign time, pid 2 = wall clock) so a mixed export
// still reads sensibly in the Perfetto timeline, and the virtual track can
// be exported alone for byte-comparison. Each recording thread gets its
// own wall tid, named after its profiler thread label.
//
// Recording is OFF by default with the same near-zero disabled path as
// MetricsRegistry: one relaxed atomic load per call, no locks, no
// allocations. Virtual-time events must be recorded from one thread at a
// time (the engine's coordinator is the only producer); wall events are
// thread-safe.
//
// Open an exported file in https://ui.perfetto.dev or chrome://tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "units/units.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace hemo::obs {

/// Ordered key/value annotations of one event. Values are rendered as JSON
/// strings; use obs::num() (obs/format.hpp) to format numbers
/// deterministically.
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] static TraceRecorder& global();

  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every recorded event (the enabled flag is left untouched).
  void reset() HEMO_EXCLUDES(mutex_);

  /// Complete span on the virtual clock; `track` groups spans into one
  /// timeline row (the engine uses the job id). start <= end required.
  void virtual_span(std::string name, std::string category, index_t track,
                    units::Seconds start, units::Seconds end,
                    TraceArgs args = {}) HEMO_EXCLUDES(mutex_);

  /// Instant event on the virtual clock (guard kills, preemptions, ...).
  void virtual_instant(std::string name, std::string category, index_t track,
                       units::Seconds at, TraceArgs args = {})
      HEMO_EXCLUDES(mutex_);

  /// Complete wall-clock span [start, end] on the calling thread's own
  /// track (pid 2), which the export names `thread_label`. obs::Phase is
  /// the producer. No-op while disabled, so a span that straddles a
  /// disable is dropped.
  void record_wall(const char* name, const char* category,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end, TraceArgs args,
                   std::string_view thread_label) HEMO_EXCLUDES(mutex_);

  /// Number of recorded virtual-clock events.
  [[nodiscard]] std::size_t virtual_event_count() const
      HEMO_EXCLUDES(mutex_);

  /// One virtual-track event, as recorded. This is the structured export
  /// the nemesis harness (src/nemesis/) consumes to cross-check the
  /// protocol history against the trace (invariant H1 of
  /// specs/executor_protocol.md) without parsing the Chrome JSON.
  struct VirtualEvent {
    std::string name;
    std::string category;
    char phase = 'X';     ///< 'X' complete, 'i' instant
    index_t track = 0;    ///< trace tid (the engine uses the job id)
    real_t ts_us = 0.0;   ///< virtual microseconds
    real_t dur_us = 0.0;  ///< complete events only
    TraceArgs args;
  };

  /// Copies the virtual track (pid 1) in recording order; wall-clock
  /// events are excluded. Thread-safe, like the JSON export.
  [[nodiscard]] std::vector<VirtualEvent> virtual_events() const
      HEMO_EXCLUDES(mutex_);

  /// Chrome trace-event JSON ({"traceEvents":[...]}). Events keep their
  /// recording order; `include_wall=false` exports only the virtual track,
  /// which is the byte-stable artifact the determinism tests compare.
  [[nodiscard]] std::string to_chrome_json(bool include_wall = true) const
      HEMO_EXCLUDES(mutex_);

  /// Writes to_chrome_json() to `path` (truncating). Throws NumericError
  /// when the file cannot be written.
  void write_chrome_json(const std::string& path,
                         bool include_wall = true) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    char phase = 'X';     ///< 'X' complete, 'i' instant
    bool wall = false;    ///< wall-clock domain (pid 2) vs virtual (pid 1)
    index_t track = 0;    ///< tid
    real_t ts_us = 0.0;   ///< microseconds (virtual or steady_clock)
    real_t dur_us = 0.0;  ///< complete events only
    TraceArgs args;
  };

  void record(Event event) HEMO_EXCLUDES(mutex_);

  // Flipped only between concurrent phases; the disabled fast path is one
  // relaxed load (DESIGN.md §13 atomic protocol table).
  std::atomic<bool> enabled_{false};  // atomic-ok(relaxed on/off latch)
  mutable Mutex mutex_;  ///< guards the recorded event log
  std::vector<Event> events_ HEMO_GUARDED_BY(mutex_);
  /// Wall tid -> thread label, for the thread_name metadata.
  std::map<index_t, std::string> wall_threads_ HEMO_GUARDED_BY(mutex_);
};

}  // namespace hemo::obs
