#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <unistd.h>

#include "lbm/simd.hpp"

namespace e2e {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

/// Shortest decimal that round-trips: every digit the measurement has.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string backend_list(const std::vector<hemo::lbm::Backend>& backends) {
  std::string out = "[";
  for (std::size_t i = 0; i < backends.size(); ++i) {
    out += (i ? ", " : "") + json_string(hemo::lbm::to_string(backends[i]));
  }
  return out + "]";
}

std::string host_json() {
  namespace simd = hemo::lbm::simd;
  std::ostringstream os;
  os << "{\"nproc\": " << nproc() << ", \"llc_bytes\": " << llc_bytes()
     << ", \"compiler\": " << json_string(__VERSION__)
     << ", \"simd_compiled\": " << backend_list(simd::compiled_backends())
     << ", \"simd_detected\": " << backend_list(simd::detected_backends())
     << ", \"simd_selected\": "
     << json_string(hemo::lbm::to_string(
            simd::resolve_backend(hemo::lbm::Backend::kAuto)))
     << "}";
  return os.str();
}

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Result::samples(const std::string& name,
                     const std::vector<double>& values) {
  if (values.empty()) return;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  samples_[name] = Samples{median(values), *lo, *hi,
                           static_cast<index_t>(values.size())};
}

void Result::output(const std::string& name, const std::string& value) {
  outputs_[name] = value;
}

void Result::check(const std::string& name, bool passed,
                   const std::string& detail) {
  checks_.push_back(Check{name, passed, detail});
}

void Result::layer_sum(const std::string& line) { layer_sums_.push_back(line); }

bool Result::correct() const {
  if (failed != 0 || attempted < 1) return false;
  for (const Check& c : checks_) {
    if (!c.passed) return false;
  }
  for (const auto& [name, m] : metrics_) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

std::string Result::to_json(const Options& options) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
       << "}";
    first = false;
  }
  os << "}, \"workload\": " << json_string(options.workload)
     << ", \"seed\": " << options.seed
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"smoke\": " << (options.smoke ? "true" : "false")
     << ", \"seconds\": " << json_number(options.seconds)
     << ", \"threads\": " << threads
     << ", \"oversubscribed\": " << (threads > nproc() ? "true" : "false")
     << ", \"host\": " << host_json() << ", \"samples\": {";
  first = true;
  for (const auto& [name, s] : samples_) {
    os << (first ? "" : ", ") << json_string(name)
       << ": {\"median\": " << json_number(s.median)
       << ", \"min\": " << json_number(s.min)
       << ", \"max\": " << json_number(s.max) << ", \"n\": " << s.n << "}";
    first = false;
  }
  os << "}, \"outputs\": {";
  first = true;
  for (const auto& [name, value] : outputs_) {
    os << (first ? "" : ", ") << json_string(name) << ": "
       << json_string(value);
    first = false;
  }
  os << "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << json_string(checks_[i].name)
       << ", \"passed\": " << (checks_[i].passed ? "true" : "false")
       << ", \"detail\": " << json_string(checks_[i].detail) << "}";
  }
  os << "], \"layer_sums\": [";
  for (std::size_t i = 0; i < layer_sums_.size(); ++i) {
    os << (i ? ", " : "") << json_string(layer_sums_[i]);
  }
  os << "]}";
  return os.str();
}

Tracer::Tracer(bool keep) : keep_(keep), origin_(Clock::now()) {}

Tracer::Span::Span(Tracer& tracer, std::string name)
    : tracer_(&tracer), name_(std::move(name)), start_(Clock::now()) {
  if (tracer_->keep_) {
    const int parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
    tracer_->open_.push_back(static_cast<int>(tracer_->spans_.size()));
    tracer_->spans_.push_back(Record{name_, 0.0, 0.0, parent});
  }
}

Tracer::Span::~Span() { close(); }

double Tracer::Span::close() {
  if (!open_) return seconds_;
  open_ = false;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (tracer_->keep_) {
    const int index = tracer_->open_.back();
    tracer_->open_.pop_back();
    Record& rec = tracer_->spans_[static_cast<std::size_t>(index)];
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - tracer_->origin_)
          .count();
    };
    rec.start_us = us(start_);
    rec.end_us = us(end);
  }
  return seconds_;
}

void Tracer::write_chrome_json(const std::string& path) const {
  // Children of one parent never overlap (spans nest on one thread), so a
  // parent's self time is its length minus the sum of its children's.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Record& rec : spans_) {
    if (rec.parent >= 0) {
      child_us[static_cast<std::size_t>(rec.parent)] +=
          rec.end_us - rec.start_us;
    }
  }
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& rec = spans_[i];
    const double dur = rec.end_us - rec.start_us;
    os << (i ? ",\n" : "") << "{\"name\": " << json_string(rec.name)
       << ", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
       << ", \"ts\": " << json_number(rec.start_us)
       << ", \"dur\": " << json_number(dur) << ", \"args\": {\"id\": " << i
       << ", \"parent\": " << rec.parent
       << ", \"parent_name\": "
       << json_string(rec.parent >= 0
                          ? spans_[static_cast<std::size_t>(rec.parent)].name
                          : "")
       << ", \"self_us\": " << json_number(dur - child_us[i]) << "}}";
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/// Probe times on an unloaded 4-vCPU Xeon host (2.0 GHz, 105 MiB LLC). They
/// only set the scale, so normalised numbers read like wall numbers on such
/// a host.
constexpr double kReferenceNominalS = 1.5e-3;  // host_speed, one repetition
constexpr double kHandoffNominalS = 4.0e-3;    // handoff_speed
constexpr std::size_t kReferenceElements = 1 << 15;  // 256 KiB of doubles
constexpr int kReferenceSweeps = 100;
constexpr int kHandoffTrips = 200;
constexpr std::size_t kHandoffElements = 1 << 11;  // 16 KiB per task
constexpr int kHandoffSweeps = 4;

/// The reference work: multiply-adds over `a` into four independent sums,
/// so it is bound by floating-point throughput, as the LBM kernel is. A
/// loop bound by the latency of one chain of adds slowed down more than the
/// solver did while the host was loaded. Returns the sum, which callers
/// keep observable.
double reference_work(std::vector<double>& a, int sweeps) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (std::size_t i = 0; i + 3 < a.size(); i += 4) {
      a[i] = a[i] * 0.999 + 0.001;
      a[i + 1] = a[i + 1] * 0.999 + 0.001;
      a[i + 2] = a[i + 2] * 0.999 + 0.001;
      a[i + 3] = a[i + 3] * 0.999 + 0.001;
      s0 += a[i];
      s1 += a[i + 1];
      s2 += a[i + 2];
      s3 += a[i + 3];
    }
  }
  return s0 + s1 + s2 + s3;
}

}  // namespace

double host_speed(index_t threads, int reps) {
  // Buffers outlive the probe threads, so no probe pays page faults.
  static std::vector<std::vector<double>> buffers;
  while (buffers.size() < static_cast<std::size_t>(threads)) {
    buffers.emplace_back(kReferenceElements, 1.0);
  }
  const auto kernel = [](std::vector<double>& a) {
    a[0] += reference_work(a, kReferenceSweeps) * 1e-300;
  };
  std::vector<double> speeds;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    if (threads == 1) {
      kernel(buffers[0]);
    } else {
      std::vector<std::thread> team;
      for (index_t t = 0; t < threads; ++t) {
        team.emplace_back(kernel,
                          std::ref(buffers[static_cast<std::size_t>(t)]));
      }
      for (std::thread& t : team) t.join();
    }
    speeds.push_back(kReferenceNominalS / seconds_since(start));
  }
  return median(speeds);
}

double handoff_speed(index_t workers) {
  // A minimal pool of our own (not sched::WorkerPool, so a change to the
  // library cannot move its own yardstick): one queue, one condition
  // variable, a future per task.
  struct Pool {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::packaged_task<double()>> queue;
    bool stop = false;
    std::vector<std::thread> team;

    Pool() = default;
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;
    ~Pool() {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        stop = true;
      }
      cv.notify_all();
      for (std::thread& t : team) t.join();
    }
  } pool;
  const auto worker = [&pool] {
    for (;;) {
      std::packaged_task<double()> task;
      {
        std::unique_lock<std::mutex> lock(pool.mutex);
        pool.cv.wait(lock, [&] { return pool.stop || !pool.queue.empty(); });
        if (pool.queue.empty()) return;
        task = std::move(pool.queue.front());
        pool.queue.pop_front();
      }
      task();
    }
  };
  for (index_t t = 0; t < workers; ++t) pool.team.emplace_back(worker);

  static std::vector<double> data(kHandoffElements, 1.0);
  double sum = 0.0;
  const Clock::time_point start = Clock::now();
  for (int trip = 0; trip < kHandoffTrips; ++trip) {
    std::packaged_task<double()> task(
        [] { return reference_work(data, kHandoffSweeps); });
    std::future<double> done = task.get_future();
    {
      const std::lock_guard<std::mutex> lock(pool.mutex);
      pool.queue.push_back(std::move(task));
    }
    pool.cv.notify_one();
    sum += done.get();
  }
  data[0] += sum * 1e-300;
  return kHandoffNominalS / seconds_since(start);
}

void release_free_memory() { malloc_trim(0); }

double resident_mib() {
  release_free_memory();
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::int64_t llc_bytes() {
  // The highest-index cache of cpu0 is the last level.
  std::int64_t bytes = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string size;
    if (!(in >> size) || size.empty()) continue;
    std::int64_t value = std::stoll(size);
    const char suffix = size.back();
    if (suffix == 'K') value <<= 10;
    if (suffix == 'M') value <<= 20;
    if (suffix == 'G') value <<= 30;
    bytes = value;
  }
  if (bytes == 0) {
    const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (v > 0) bytes = v;
  }
  return bytes;
}

index_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<index_t>(n)
               : static_cast<index_t>(std::thread::hardware_concurrency());
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

std::string digest_hex(const void* data, std::size_t bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace e2e
