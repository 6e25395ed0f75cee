// Cooperative phase-stack sampling profiler, and obs::Phase — the one
// phase timer of the tree.
//
// A Phase ("attempt", "pack", "interior", "ab_pull", ...) is an RAII
// marker that feeds every consumer of phase time from one pair of
// construction/destruction points: it pushes a frame onto its thread's
// profiler stack while the profiler is on, adds its wall time to the
// caller's accumulator when given one (the rank step's RankTimings, the
// solver's lbm_step_seconds), and records a wall-clock trace event on the
// calling thread's own track while the TraceRecorder is on. With all of
// these off a Phase is two relaxed loads: no clock read, lock or
// allocation.
//
// The profiler keeps a small per-thread stack of static string pointers;
// a sampler thread wakes at a fixed period, snapshots every registered
// stack, and accumulates one count per observed stack path. The
// aggregate renders directly as collapsed-stack ("folded") flamegraph
// input — `label;phase_a;phase_b 172` — and as per-phase *self time*
// gauges (leaf-frame samples x sampling period).
//
// Sampling model and bias bounds (DESIGN.md §14): the sampler sleeps on
// absolute deadlines (`sleep_until(start + n * period)`), so the tick
// count over a run of length T is T/period ± 1 regardless of scheduling
// jitter, and the total attributed self time is within one period of
// elapsed wall time per thread. Individual phases shorter than the period
// are seen probabilistically (standard sampling-profiler behaviour) but
// their *expected* attributed time is unbiased. A frame push/pop is two
// relaxed/release atomic stores on the owning thread — cheap enough for
// per-step runtime phases — and the profiler is off by default,
// preserving the repo's behaviour-neutrality contract.
//
// Thread-safety: registration and aggregation are guarded by a
// hemo::Mutex. The per-thread frame stacks are written only by the owning
// thread and read by the sampler through atomics (release store on the
// depth, acquire load by the sampler) — a torn read across a push/pop race
// can at worst attribute one sample to the enclosing stack, never read a
// dangling pointer, because frames hold pointers to string literals with
// static storage duration.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/sync.hpp"

namespace hemo::obs {

class PhaseProfiler {
 public:
  /// Maximum phase-marker nesting; deeper scopes are silently not pushed
  /// (the sample lands on the enclosing phase).
  static constexpr int kMaxDepth = 16;

  PhaseProfiler() = default;
  ~PhaseProfiler();
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// The process-wide profiler the Phase markers record into.
  [[nodiscard]] static PhaseProfiler& global();

  /// Profiling is opt-in; while disabled a Phase pushes no frame (one
  /// relaxed load).
  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Starts the sampler thread at `hz` samples/second (clamped to
  /// [1, 10000]). Implies enable(true). No-op if already running.
  void start(real_t hz = 997.0) HEMO_EXCLUDES(mutex_);

  /// Stops the sampler thread (markers stay enabled until enable(false)).
  void stop() HEMO_EXCLUDES(mutex_);

  /// Drops all accumulated samples (registered threads stay registered).
  void reset() HEMO_EXCLUDES(mutex_);

  /// Collapsed-stack flamegraph output, one line per distinct stack:
  /// `label;phase1;phase2 count`, sorted by stack path. Feed to
  /// flamegraph.pl / speedscope / inferno directly.
  [[nodiscard]] std::string folded() const HEMO_EXCLUDES(mutex_);

  /// Writes folded() to `path` (truncating); throws NumericError on I/O
  /// failure.
  void write_folded(const std::string& path) const HEMO_EXCLUDES(mutex_);

  /// Exports per-phase self time (leaf samples x period) as
  /// `profile_phase_self_seconds{phase=...,thread=...}` gauges plus
  /// `profile_sample_period_seconds` / `profile_samples_count`.
  void export_metrics(MetricsRegistry& registry) const HEMO_EXCLUDES(mutex_);

  /// Total stack snapshots taken since start()/reset().
  [[nodiscard]] std::uint64_t sample_count() const HEMO_EXCLUDES(mutex_);

  /// Sampling period of the most recent start() (0 before any start).
  [[nodiscard]] real_t period_seconds() const HEMO_EXCLUDES(mutex_);

  /// Labels the calling thread in folded output and on its wall trace
  /// track ("rank3", "worker1", "coordinator"); unlabeled threads render
  /// as "thread". The label is kept per thread even while profiling is
  /// off; while on, the calling thread is registered if not yet known.
  void set_thread_label(std::string_view label) HEMO_EXCLUDES(mutex_);

  struct Holder;  ///< thread_local registration handle (deregisters on exit)

 private:
  friend class Phase;

  /// Pushes a phase frame; returns false when not pushed (disabled or
  /// stack full) so the matching pop is skipped.
  [[nodiscard]] bool push_phase(const char* literal) HEMO_EXCLUDES(mutex_);
  void pop_phase() noexcept;

  /// Per-thread marker stack. Written by the owning thread only; the
  /// sampler reads depth (acquire) then frames below it. Frames are
  /// pointers to string literals, so a stale read is always a valid
  /// pointer to a still-live phase name.
  struct ThreadStack {
    std::array<std::atomic<const char*>,  // atomic-ok(single-writer frames)
               kMaxDepth>
        frames;
    std::atomic<int> depth{0};  // atomic-ok(release store / acquire read)
    std::string label = "thread";
  };

  std::shared_ptr<ThreadStack> stack_for_this_thread() HEMO_EXCLUDES(mutex_);
  void sampler_loop(std::chrono::steady_clock::duration period,
                    std::chrono::steady_clock::time_point start)
      HEMO_EXCLUDES(mutex_);

  std::atomic<bool> enabled_{false};   // atomic-ok(relaxed on/off latch)
  std::atomic<bool> stopping_{false};  // atomic-ok(sampler shutdown flag)

  mutable Mutex mutex_;
  std::vector<std::shared_ptr<ThreadStack>> threads_ HEMO_GUARDED_BY(mutex_);
  /// stack path ("label;a;b") -> snapshot count.
  std::map<std::string, std::uint64_t> samples_ HEMO_GUARDED_BY(mutex_);
  std::uint64_t total_samples_ HEMO_GUARDED_BY(mutex_) = 0;
  real_t period_s_ HEMO_GUARDED_BY(mutex_) = 0.0;
  std::jthread sampler_ HEMO_GUARDED_BY(mutex_);
};

/// RAII phase marker (see the file comment). `name` and `category` must
/// be string literals (or otherwise have static storage duration) — the
/// profiler stores the pointer, not a copy. `seconds`, when given,
/// receives `+=` the phase's wall time.
class Phase {
 public:
  explicit Phase(const char* name, real_t* seconds = nullptr)
      : name_(name), seconds_(seconds) {
    begin();
  }

  /// A phase whose trace event carries annotations. `make_args` (returning
  /// TraceArgs) runs once, on construction, only while the trace recorder
  /// is on, so a disabled phase builds no strings.
  template <typename MakeArgs>
  Phase(const char* name, const char* category, MakeArgs&& make_args)
      : name_(name), category_(category) {
    begin();
    if (traced_) args_ = make_args();
  }

  ~Phase() {
    if (pushed_ || traced_ || seconds_ != nullptr) end();
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  void begin();
  void end();

  const char* name_;
  const char* category_ = "phase";
  real_t* seconds_ = nullptr;
  bool pushed_ = false;
  bool traced_ = false;
  std::chrono::steady_clock::time_point start_{};
  TraceArgs args_;
};

/// Labels the calling thread (PhaseProfiler::set_thread_label).
inline void set_thread_label(std::string_view label) {
  PhaseProfiler::global().set_thread_label(label);
}

}  // namespace hemo::obs
