// Concurrency stress for the metrics registry (run under TSan via
// `ctest -L tsan`): many threads hammering the same histogram series and
// the same counters must neither race nor lose updates, and flipping the
// enabled flag mid-storm must stay data-race-free (it is the lock-free
// fast path every instrumented layer takes). Concurrent obs::Phase spans
// must each land on their own thread's wall track.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace hemo::obs {
namespace {

TEST(ObsStress, ConcurrentHistogramObservationsAreLossless) {
  MetricsRegistry registry;
  registry.enable(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Spread observations across buckets; the shared-series path is
        // the contended one.
        registry.observe("storm_seconds",
                         static_cast<real_t>((t * kPerThread + i) % 97 + 1));
        registry.add("storm_total");
        registry.add("storm_by_thread_total", 1.0,
                     {{"thread", std::to_string(t)}});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr auto kExpected =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  bool saw_histogram = false;
  real_t counter_total = 0.0;
  for (const MetricSnapshot& snap : registry.snapshot()) {
    if (snap.name == "storm_seconds") {
      saw_histogram = true;
      EXPECT_EQ(snap.histogram.count, kExpected);
      EXPECT_GE(snap.histogram.min, 1.0);
      EXPECT_LE(snap.histogram.max, 97.0);
      std::uint64_t bucketed = 0;
      for (const std::uint64_t b : snap.histogram.buckets) bucketed += b;
      EXPECT_EQ(bucketed, kExpected);
    }
    if (snap.name == "storm_total") {
      EXPECT_DOUBLE_EQ(snap.value, static_cast<real_t>(kExpected));
    }
    if (snap.name == "storm_by_thread_total") {
      EXPECT_DOUBLE_EQ(snap.value, static_cast<real_t>(kPerThread));
      counter_total += snap.value;
    }
  }
  EXPECT_TRUE(saw_histogram);
  EXPECT_DOUBLE_EQ(counter_total,
                   static_cast<real_t>(kThreads) * kPerThread);
}

TEST(ObsStress, EnableToggleDuringStormIsRaceFree) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};

  std::thread toggler([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.enable(true);
      registry.enable(false);
    }
    registry.enable(true);
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&registry] {
      for (int i = 0; i < 20000; ++i) {
        registry.add("toggle_total");
        registry.set("toggle_gauge", static_cast<real_t>(i));
      }
    });
  }
  for (std::thread& thread : writers) thread.join();
  stop.store(true, std::memory_order_relaxed);
  toggler.join();

  // With the flag flapping we cannot pin the exact count — only that the
  // registry stays coherent (snapshot under the same lock as the writes).
  for (const MetricSnapshot& snap : registry.snapshot()) {
    if (snap.name == "toggle_total") {
      EXPECT_GE(snap.value, 0.0);
    }
  }
}

TEST(ObsStress, ConcurrentWallPhasesRecordOnePerThread) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.reset();
  recorder.enable(true);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      set_thread_label("stress" + std::to_string(t));
      const Phase span("worker", "stress", [t] {
        return TraceArgs{{"thread", std::to_string(t)}};
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  recorder.enable(false);

  // All wall spans recorded, each on its own thread's track; none on the
  // virtual track.
  EXPECT_EQ(recorder.virtual_event_count(), 0u);
  const std::string json = recorder.to_chrome_json();
  recorder.reset();
  std::set<std::string> tids;
  std::size_t spans = 0;
  const std::string worker = "\"name\":\"worker\",\"cat\":\"stress\","
                             "\"ph\":\"X\",\"pid\":2,\"tid\":";
  for (std::size_t pos = json.find(worker); pos != std::string::npos;
       pos = json.find(worker, pos + 1)) {
    const std::size_t begin = pos + worker.size();
    tids.insert(json.substr(begin, json.find(',', begin) - begin));
    ++spans;
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads)) << json;
  // Every track is named after its thread's label.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(json.find("\"name\":\"thread_name\",\"args\":{\"name\":"
                        "\"stress" +
                        std::to_string(t) + "\"}}"),
              std::string::npos)
        << t;
  }
}

}  // namespace
}  // namespace hemo::obs
