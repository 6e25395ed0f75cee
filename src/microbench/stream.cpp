#include "microbench/stream.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "cluster/hardware.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/uninit_vector.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace hemo::microbench {

namespace {

using Clock = std::chrono::steady_clock;

real_t seconds_since(Clock::time_point start) {
  return std::chrono::duration<real_t>(Clock::now() - start).count();
}

/// The four STREAM kernels over a fixed OpenMP team. Serial when
/// threads == 1 (bit-identical to the historical single-thread path) or
/// when the build has no OpenMP.
struct StreamKernels {
  double* a;
  double* b;
  double* c;
  std::size_t n;
  double scalar;
  index_t threads;

  template <typename Body>
  void run(const Body& body) const {
#ifdef _OPENMP
    if (threads > 1) {
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads))
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i) body(i);
  }

  void copy() const { run([&](std::size_t i) { c[i] = a[i]; }); }
  void scale() const { run([&](std::size_t i) { b[i] = scalar * c[i]; }); }
  void add() const { run([&](std::size_t i) { c[i] = a[i] + b[i]; }); }
  void triad() const {
    run([&](std::size_t i) { a[i] = b[i] + scalar * c[i]; });
  }
  /// First touch under the same partition the kernels use.
  void init() const {
    run([&](std::size_t i) {
      a[i] = 1.0;
      b[i] = 2.0;
      c[i] = 0.0;
    });
  }
};

}  // namespace

StreamResult run_stream_local(index_t elements, index_t repetitions,
                              index_t threads) {
  HEMO_REQUIRE(elements >= 1024, "STREAM arrays must hold >= 1024 elements");
  HEMO_REQUIRE(repetitions >= 1, "need at least one repetition");
  HEMO_REQUIRE(threads >= 1, "need at least one thread");
  const obs::Phase span("stream_local", "microbench", [&] {
    return obs::TraceArgs{{"elements", std::to_string(elements)},
                          {"repetitions", std::to_string(repetitions)},
                          {"threads", std::to_string(threads)}};
  });
  const auto n = static_cast<std::size_t>(elements);
  // Sized unwritten: init() first-touches them under the kernels' split.
  UninitVector<double> a(n), b(n), c(n);
  const StreamKernels k{a.data(), b.data(), c.data(), n, 3.0, threads};
  k.init();

  const real_t mb_two = 2.0 * static_cast<real_t>(n) * 8.0 / 1e6;
  const real_t mb_three = 3.0 * static_cast<real_t>(n) * 8.0 / 1e6;

  StreamResult best;
  for (index_t rep = 0; rep < repetitions; ++rep) {
    auto t0 = Clock::now();
    k.copy();
    best.copy = std::max(best.copy, mb_two / seconds_since(t0));

    t0 = Clock::now();
    k.scale();
    best.scale = std::max(best.scale, mb_two / seconds_since(t0));

    t0 = Clock::now();
    k.add();
    best.add = std::max(best.add, mb_three / seconds_since(t0));

    t0 = Clock::now();
    k.triad();
    best.triad = std::max(best.triad, mb_three / seconds_since(t0));
  }
  obs::MetricsRegistry::global().set("microbench_stream_triad_mbps",
                                     best.triad);
  return best;
}

std::vector<BandwidthSample> real_stream_sweep(index_t max_threads,
                                               index_t elements,
                                               index_t repetitions) {
  HEMO_REQUIRE(max_threads >= 1, "sweep needs at least one thread");
  std::vector<BandwidthSample> sweep;
  sweep.reserve(static_cast<std::size_t>(max_threads));
  for (index_t t = 1; t <= max_threads; ++t) {
    const StreamResult r = run_stream_local(elements, repetitions, t);
    sweep.push_back(BandwidthSample{t, r.copy});
  }
  return sweep;
}

std::vector<BandwidthSample> simulated_stream_sweep(
    const cluster::InstanceProfile& profile, index_t max_threads,
    index_t sample) {
  HEMO_REQUIRE(max_threads >= 1, "sweep needs at least one thread");
  cluster::MemorySystem memory(profile);
  std::vector<BandwidthSample> sweep;
  sweep.reserve(static_cast<std::size_t>(max_threads));
  for (index_t t = 1; t <= max_threads; ++t) {
    sweep.push_back(BandwidthSample{
        t, memory.measured_node_bandwidth(t, sample).value()});
  }
  return sweep;
}

std::vector<BandwidthSample> simulated_stream_sweep_full_node(
    const cluster::InstanceProfile& profile, index_t sample) {
  return simulated_stream_sweep(
      profile, profile.cores_per_node * profile.vcpus_per_core, sample);
}

}  // namespace hemo::microbench
