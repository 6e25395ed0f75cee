#include "obs/profile.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace hemo::obs {

/// Registration handle living in a thread_local: constructed on a thread's
/// first marker push, deregisters the stack when the thread exits so the
/// sampler never walks a dead thread's stack.
struct PhaseProfiler::Holder {
  PhaseProfiler* owner = nullptr;
  std::shared_ptr<ThreadStack> stack;

  ~Holder() {
    if (owner == nullptr || stack == nullptr) return;
    const MutexLock lock(owner->mutex_);
    auto& threads = owner->threads_;
    threads.erase(std::remove(threads.begin(), threads.end(), stack),
                  threads.end());
  }
};

namespace {
thread_local PhaseProfiler::Holder t_holder;  // sync-ok(thread-local handle)
thread_local std::string t_label = "thread";  // sync-ok(thread-local label)
}  // namespace

PhaseProfiler::~PhaseProfiler() { stop(); }

PhaseProfiler& PhaseProfiler::global() {
  static PhaseProfiler profiler;
  return profiler;
}

std::shared_ptr<PhaseProfiler::ThreadStack>
PhaseProfiler::stack_for_this_thread() {
  if (t_holder.owner == this && t_holder.stack != nullptr) {
    return t_holder.stack;
  }
  auto stack = std::make_shared<ThreadStack>();
  stack->label = t_label;
  {
    const MutexLock lock(mutex_);
    threads_.push_back(stack);
  }
  t_holder.owner = this;
  t_holder.stack = stack;
  return stack;
}

void PhaseProfiler::set_thread_label(std::string_view label) {
  t_label = label;
  if (!enabled()) return;
  const std::shared_ptr<ThreadStack> stack = stack_for_this_thread();
  // The label is only read by the sampler; publish it under the lock so
  // the string mutation is ordered against sampler reads.
  const MutexLock lock(mutex_);
  stack->label = std::string(label);
}

bool PhaseProfiler::push_phase(const char* literal) {
  if (!enabled()) return false;
  ThreadStack& stack = *stack_for_this_thread();
  const int depth = stack.depth.load(std::memory_order_relaxed);
  if (depth >= kMaxDepth) return false;
  stack.frames[static_cast<std::size_t>(depth)].store(
      literal, std::memory_order_relaxed);
  // Release: the sampler's acquire load of depth sees the frame store.
  stack.depth.store(depth + 1, std::memory_order_release);
  return true;
}

void PhaseProfiler::pop_phase() noexcept {
  // push_phase returned true, so the holder is registered and depth > 0.
  ThreadStack& stack = *t_holder.stack;
  const int depth = stack.depth.load(std::memory_order_relaxed);
  if (depth > 0) {
    stack.depth.store(depth - 1, std::memory_order_release);
  }
}

void Phase::begin() {
  pushed_ = PhaseProfiler::global().push_phase(name_);
  traced_ = TraceRecorder::global().enabled();
  if (traced_ || seconds_ != nullptr) {
    start_ = std::chrono::steady_clock::now();
  }
}

void Phase::end() {
  if (traced_ || seconds_ != nullptr) {
    const auto stop = std::chrono::steady_clock::now();
    if (seconds_ != nullptr) {
      *seconds_ += std::chrono::duration<real_t>(stop - start_).count();
    }
    if (traced_) {
      TraceRecorder::global().record_wall(name_, category_, start_, stop,
                                          std::move(args_), t_label);
    }
  }
  if (pushed_) PhaseProfiler::global().pop_phase();
}

void PhaseProfiler::start(real_t hz) {
  enable(true);
  const MutexLock lock(mutex_);
  if (sampler_.joinable()) return;
  hz = std::clamp(hz, 1.0, 10000.0);
  period_s_ = 1.0 / hz;
  stopping_.store(false, std::memory_order_relaxed);
  const auto period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<real_t>(
      period_s_));
  const auto start_at = std::chrono::steady_clock::now();
  sampler_ = std::jthread(
      [this, period, start_at] { sampler_loop(period, start_at); });
}

void PhaseProfiler::stop() {
  std::jthread sampler;
  {
    const MutexLock lock(mutex_);
    if (!sampler_.joinable()) return;
    stopping_.store(true, std::memory_order_relaxed);
    sampler = std::move(sampler_);
  }
  sampler.join();  // outside the lock: the loop takes mutex_ per tick
}

void PhaseProfiler::sampler_loop(
    std::chrono::steady_clock::duration period,
    std::chrono::steady_clock::time_point start) {
  // Absolute deadlines: tick n fires at start + n*period, so over a run of
  // length T the sampler takes T/period ± 1 snapshots even when individual
  // wakeups jitter — this is what bounds the self-time-vs-wall-time error
  // the acceptance test checks.
  for (std::uint64_t tick = 1;; ++tick) {
    std::this_thread::sleep_until(start + tick * period);
    if (stopping_.load(std::memory_order_relaxed)) return;
    const MutexLock lock(mutex_);
    ++total_samples_;
    for (const std::shared_ptr<ThreadStack>& stack : threads_) {
      const int depth = stack->depth.load(std::memory_order_acquire);
      if (depth <= 0) continue;  // idle thread: attribute nothing
      std::string path = stack->label;
      for (int i = 0; i < depth && i < kMaxDepth; ++i) {
        const char* frame = stack->frames[static_cast<std::size_t>(i)].load(
            std::memory_order_relaxed);
        if (frame == nullptr) break;
        path += ';';
        path += frame;
      }
      ++samples_[path];
    }
  }
}

void PhaseProfiler::reset() {
  const MutexLock lock(mutex_);
  samples_.clear();
  total_samples_ = 0;
}

std::string PhaseProfiler::folded() const {
  const MutexLock lock(mutex_);
  std::string out;
  for (const auto& [path, count] : samples_) {
    out += path;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

void PhaseProfiler::write_folded(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) throw NumericError("cannot write profile file: " + path);
  out << folded();
}

void PhaseProfiler::export_metrics(MetricsRegistry& registry) const {
  // Self time = leaf-frame samples x period: a sample counts toward the
  // innermost phase that was live when the snapshot fired.
  std::map<std::pair<std::string, std::string>, std::uint64_t> leaves;
  real_t period;
  std::uint64_t total;
  {
    const MutexLock lock(mutex_);
    period = period_s_;
    total = total_samples_;
    for (const auto& [path, count] : samples_) {
      const auto first = path.find(';');
      const auto last = path.rfind(';');
      std::string thread = path.substr(0, first);
      std::string phase =
          first == std::string::npos ? "idle" : path.substr(last + 1);
      leaves[{std::move(thread), std::move(phase)}] += count;
    }
  }
  registry.set("profile_sample_period_seconds", period);
  registry.set("profile_samples_count", static_cast<real_t>(total));
  for (const auto& [self, count] : leaves) {
    registry.set("profile_phase_self_seconds",
                 static_cast<real_t>(count) * period,
                 {{"thread", self.first}, {"phase", self.second}});
  }
}

std::uint64_t PhaseProfiler::sample_count() const {
  const MutexLock lock(mutex_);
  return total_samples_;
}

real_t PhaseProfiler::period_seconds() const {
  const MutexLock lock(mutex_);
  return period_s_;
}

}  // namespace hemo::obs
