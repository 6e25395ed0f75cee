#include "obs/trace.hpp"

#include <cstdio>
#include <fstream>

#include "obs/format.hpp"

namespace hemo::obs {

namespace {

std::string format_us(real_t us) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.3f", us);
  return buffer;
}

}  // namespace

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::reset() {
  const MutexLock lock(mutex_);
  events_.clear();
  wall_threads_.clear();
}

void TraceRecorder::record(Event event) {
  const MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

void TraceRecorder::virtual_span(std::string name, std::string category,
                                 index_t track, units::Seconds start,
                                 units::Seconds end, TraceArgs args) {
  if (!enabled()) return;
  HEMO_REQUIRE(start <= end, "virtual span must not end before it starts");
  Event event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'X';
  event.wall = false;
  event.track = track;
  event.ts_us = start.value() * 1e6;
  event.dur_us = (end - start).value() * 1e6;
  event.args = std::move(args);
  record(std::move(event));
}

void TraceRecorder::virtual_instant(std::string name, std::string category,
                                    index_t track, units::Seconds at,
                                    TraceArgs args) {
  if (!enabled()) return;
  Event event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.phase = 'i';
  event.wall = false;
  event.track = track;
  event.ts_us = at.value() * 1e6;
  event.args = std::move(args);
  record(std::move(event));
}

void TraceRecorder::record_wall(const char* name, const char* category,
                                std::chrono::steady_clock::time_point start,
                                std::chrono::steady_clock::time_point end,
                                TraceArgs args,
                                std::string_view thread_label) {
  if (!enabled()) return;
  // One tid per OS thread for the life of the process, in first-record
  // order.
  static std::atomic<index_t> next_tid{1};  // atomic-ok(relaxed id counter)
  thread_local const index_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  Event event;
  event.name = name;
  event.category = category;
  event.phase = 'X';
  event.wall = true;
  event.track = tid;
  event.ts_us =
      std::chrono::duration<real_t, std::micro>(start.time_since_epoch())
          .count();
  event.dur_us =
      std::chrono::duration<real_t, std::micro>(end - start).count();
  event.args = std::move(args);
  const MutexLock lock(mutex_);
  std::string& label = wall_threads_[tid];
  if (label != thread_label) label = thread_label;
  events_.push_back(std::move(event));
}

std::size_t TraceRecorder::virtual_event_count() const {
  const MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const Event& event : events_) {
    if (!event.wall) ++n;
  }
  return n;
}

std::vector<TraceRecorder::VirtualEvent> TraceRecorder::virtual_events()
    const {
  const MutexLock lock(mutex_);
  std::vector<VirtualEvent> out;
  for (const Event& event : events_) {
    if (event.wall) continue;
    VirtualEvent v;
    v.name = event.name;
    v.category = event.category;
    v.phase = event.phase;
    v.track = event.track;
    v.ts_us = event.ts_us;
    v.dur_us = event.dur_us;
    v.args = event.args;
    out.push_back(std::move(v));
  }
  return out;
}

std::string TraceRecorder::to_chrome_json(bool include_wall) const {
  std::vector<Event> events;
  std::map<index_t, std::string> wall_threads;
  {
    const MutexLock lock(mutex_);
    events = events_;
    wall_threads = wall_threads_;
  }

  std::string out = "{\"traceEvents\":[\n";
  // Process-name metadata first, so Perfetto labels the two clock domains.
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"campaign (virtual time)\"}}";
  bool first = false;
  const auto emit = [&out, &first](const Event& event) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, event.name);
    out += "\",\"cat\":\"";
    append_json_escaped(out, event.category);
    out += "\",\"ph\":\"";
    out += event.phase;
    out += "\",\"pid\":";
    out += event.wall ? '2' : '1';
    out += ",\"tid\":" + std::to_string(event.track);
    out += ",\"ts\":" + format_us(event.ts_us);
    if (event.phase == 'X') {
      out += ",\"dur\":" + format_us(event.dur_us);
    } else if (event.phase == 'i') {
      out += ",\"s\":\"t\"";  // instant scoped to its thread/track
    }
    if (!event.args.empty()) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < event.args.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        append_json_escaped(out, event.args[i].first);
        out += "\":\"";
        append_json_escaped(out, event.args[i].second);
        out += '"';
      }
      out += '}';
    }
    out += '}';
  };

  bool any_wall = false;
  for (const Event& event : events) {
    if (event.wall) {
      any_wall = true;
      continue;
    }
    emit(event);
  }
  if (include_wall && any_wall) {
    if (!first) out += ",\n";
    first = false;
    out +=
        "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
        "\"args\":{\"name\":\"wall clock\"}}";
    for (const auto& [tid, label] : wall_threads) {
      out += ",\n{\"ph\":\"M\",\"pid\":2,\"tid\":" + std::to_string(tid) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      append_json_escaped(out, label);
      out += "\"}}";
    }
    for (const Event& event : events) {
      if (event.wall) emit(event);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void TraceRecorder::write_chrome_json(const std::string& path,
                                      bool include_wall) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) throw NumericError("cannot write trace file: " + path);
  out << to_chrome_json(include_wall);
}

}  // namespace hemo::obs
