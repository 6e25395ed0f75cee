#include "obs/recorder.hpp"

#include <chrono>
#include <fstream>

#include "obs/format.hpp"

namespace hemo::obs {

namespace {

/// One entry per line in the dump: fold embedded newlines.
void append_line_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::enable(bool on) {
  const MutexLock lock(mutex_);
  if (on && !enabled_.load(std::memory_order_relaxed)) {
    epoch_ = std::chrono::steady_clock::now();
  }
  enabled_.store(on, std::memory_order_relaxed);
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  const MutexLock lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

void FlightRecorder::note(std::string_view kind, std::string_view text) {
  if (!enabled()) return;
  const auto now = std::chrono::steady_clock::now();
  const MutexLock lock(mutex_);
  FlightEntry entry;
  entry.wall_s = std::chrono::duration<real_t>(now - epoch_).count();
  entry.kind = std::string(kind);
  entry.text = std::string(text);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(entry));
}

void FlightRecorder::snapshot_metrics(const MetricsRegistry& registry) {
  if (!enabled()) return;
  for (const MetricSnapshot& snap : registry.snapshot()) {
    std::string text = snap.key();
    text += ' ';
    if (snap.kind == MetricKind::kHistogram) {
      text += "count=" + std::to_string(snap.histogram.count) +
              " sum=" + num(snap.histogram.sum) +
              " p99=" + num(snap.histogram.quantile(0.99));
    } else {
      text += num(snap.value);
    }
    note("metrics", text);
  }
}

void FlightRecorder::reset() {
  const MutexLock lock(mutex_);
  ring_.clear();
  dropped_ = 0;
}

std::vector<FlightEntry> FlightRecorder::entries() const {
  const MutexLock lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t FlightRecorder::dropped() const {
  const MutexLock lock(mutex_);
  return dropped_;
}

std::string FlightRecorder::dump() const {
  const MutexLock lock(mutex_);
  std::string out = "# hemocloud flight recorder (dropped=" +
                    std::to_string(dropped_) + ")\n";
  for (const FlightEntry& entry : ring_) {
    out += num(entry.wall_s);
    out += ' ';
    out += entry.kind;
    out += ' ';
    append_line_escaped(out, entry.text);
    out += '\n';
  }
  return out;
}

void FlightRecorder::dump_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    throw NumericError("cannot write flight-recorder dump: " + path);
  }
  out << dump();
}

}  // namespace hemo::obs
