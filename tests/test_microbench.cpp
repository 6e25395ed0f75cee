// Unit tests for the STREAM and PingPong microbenchmarks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cluster/instance.hpp"
#include "fit/two_line.hpp"
#include "microbench/pingpong.hpp"
#include "microbench/stream.hpp"

namespace hemo::microbench {
namespace {

TEST(StreamLocal, ReportsPositiveBandwidths) {
  const StreamResult r = run_stream_local(1 << 18, 2);
  EXPECT_GT(r.copy, 0.0);
  EXPECT_GT(r.scale, 0.0);
  EXPECT_GT(r.add, 0.0);
  EXPECT_GT(r.triad, 0.0);
  // Sanity: a modern core sustains well above 100 MB/s and below 1 TB/s.
  EXPECT_GT(r.copy, 100.0);
  EXPECT_LT(r.copy, 1e6);
}

TEST(StreamLocal, RejectsTinyArrays) {
  EXPECT_THROW((void)run_stream_local(16, 1), PreconditionError);
}

TEST(StreamLocal, ThreadedModeReportsPositiveBandwidths) {
  // threads > 1 exercises the OpenMP kernels (serial fallback in a build
  // without OpenMP — either way the measurement must be sane).
  const StreamResult r = run_stream_local(1 << 18, 2, 2);
  EXPECT_GT(r.copy, 100.0);
  EXPECT_GT(r.scale, 100.0);
  EXPECT_GT(r.add, 100.0);
  EXPECT_GT(r.triad, 100.0);
}

TEST(StreamLocal, RejectsZeroThreads) {
  EXPECT_THROW((void)run_stream_local(1 << 18, 1, 0), PreconditionError);
}

TEST(StreamLocal, RealSweepCoversOneToMax) {
  const auto sweep = real_stream_sweep(2, 1 << 16, 1);
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_EQ(sweep.front().threads, 1);
  EXPECT_EQ(sweep.back().threads, 2);
  for (const auto& s : sweep) EXPECT_GT(s.bandwidth_mbs, 0.0);
}

TEST(StreamSimulated, SweepCoversOneToMax) {
  const auto& p = cluster::instance_by_abbrev("CSP-2");
  const auto sweep = simulated_stream_sweep(p, 36);
  ASSERT_EQ(sweep.size(), 36u);
  EXPECT_EQ(sweep.front().threads, 1);
  EXPECT_EQ(sweep.back().threads, 36);
  for (const auto& s : sweep) EXPECT_GT(s.bandwidth_mbs, 0.0);
}

TEST(StreamSimulated, FullNodeSweepHonorsHyperthreading) {
  const auto& hyp = cluster::instance_by_abbrev("CSP-2 Hyp.");
  const auto sweep = simulated_stream_sweep_full_node(hyp);
  EXPECT_EQ(static_cast<index_t>(sweep.size()),
            hyp.cores_per_node * hyp.vcpus_per_core);  // 72 vCPUs
}

TEST(StreamSimulated, HyperthreadedBandwidthDeclinesPastKnee) {
  // CSP-2 Hyp. has a negative saturated slope (paper Table III): bandwidth
  // at 72 threads is below the knee value.
  const auto& hyp = cluster::instance_by_abbrev("CSP-2 Hyp.");
  const auto sweep = simulated_stream_sweep_full_node(hyp);
  const real_t knee = sweep[10].bandwidth_mbs;   // just past a3 = 9.87
  const real_t full = sweep.back().bandwidth_mbs;
  EXPECT_LT(full, knee);
}

TEST(MessageSizes, LadderStartsAtZeroAndDoubles) {
  const auto sizes = default_message_sizes(1024.0);
  ASSERT_GE(sizes.size(), 3u);
  EXPECT_DOUBLE_EQ(sizes[0], 0.0);
  EXPECT_DOUBLE_EQ(sizes[1], 1.0);
  EXPECT_DOUBLE_EQ(sizes.back(), 1024.0);
  for (std::size_t i = 2; i < sizes.size(); ++i) {
    EXPECT_DOUBLE_EQ(sizes[i], 2.0 * sizes[i - 1]);
  }
}

TEST(PingPongSimulated, InterSlowerThanIntra) {
  const auto& p = cluster::instance_by_abbrev("CSP-2");
  const auto sizes = default_message_sizes(1 << 20);
  const auto inter = simulated_pingpong(p, true, sizes);
  const auto intra = simulated_pingpong(p, false, sizes);
  ASSERT_EQ(inter.size(), intra.size());
  for (std::size_t i = 0; i < inter.size(); ++i) {
    EXPECT_GT(inter[i].time_us, intra[i].time_us * 0.9);
  }
  // At the large end the gap is decisive.
  EXPECT_GT(inter.back().time_us, intra.back().time_us * 2.0);
}

TEST(PingPongSimulated, DeterministicPerSample) {
  const auto& p = cluster::instance_by_abbrev("TRC");
  const auto sizes = default_message_sizes(4096.0);
  const auto a = simulated_pingpong(p, true, sizes, 0);
  const auto b = simulated_pingpong(p, true, sizes, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_us, b[i].time_us);
  }
}

TEST(PingPongLocal, TimesGrowWithMessageSize) {
  // One wall-clock sample per size is at the mercy of a single scheduler
  // hiccup, so the ladder runs five times, interleaved, and each size is
  // judged by its fastest sample.
  const std::vector<real_t> sizes = {0.0, 1024.0, 262144.0};
  std::vector<real_t> fastest(sizes.size(),
                              std::numeric_limits<real_t>::infinity());
  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto samples = run_pingpong_local(sizes, 50);
    ASSERT_EQ(samples.size(), 3u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_GT(samples[i].time_us, 0.0);
      fastest[i] = std::min(fastest[i], samples[i].time_us);
    }
  }
  // A 256 KiB copy costs measurably more than a zero-byte handshake.
  EXPECT_GT(fastest[2], fastest[0]);
}

TEST(PingPongLocal, ZeroByteLadderMeasuresPureLatency) {
  // The 0-byte rung anchors the latency intercept of Eq. 10's fit; it must
  // measure cleanly on its own, not only as part of a longer ladder.
  const auto samples = run_pingpong_local({0.0}, 50);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].bytes, 0.0);
  EXPECT_GT(samples[0].time_us, 0.0);
  EXPECT_LT(samples[0].time_us, 1e4) << "a zero-byte handshake took > 10 ms";
}

TEST(StreamSimulated, SingleCoreSweepIsOneSteepRegimePoint) {
  // max_threads = 1 is the degenerate sweep: one sample, below every
  // profile's breakpoint, so bandwidth is the steep-regime slope a1.
  for (const cluster::InstanceProfile& p : cluster::default_catalog()) {
    const auto sweep = simulated_stream_sweep(p, 1);
    ASSERT_EQ(sweep.size(), 1u) << p.abbrev;
    EXPECT_EQ(sweep[0].threads, 1);
    EXPECT_GT(sweep[0].bandwidth_mbs, 0.0) << p.abbrev;
  }
}

TEST(TwoLineFit, SurvivesNonMonotoneBandwidthSamples) {
  // Real sweeps are noisy and not monotone (the paper's Fig. 5 shows dips
  // past the knee). The fitter must not crash on zig-zag data and must
  // still return a usable model: positive steep slope, breakpoint inside
  // the sampled range, and predictions of the right magnitude.
  const std::vector<real_t> threads = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<real_t> bandwidth = {8000,  16500, 23000, 30500,
                                         29000, 31500, 28500, 30000};
  const fit::TwoLineModel m = fit::fit_two_line(threads, bandwidth);
  EXPECT_GT(m.a1, 0.0);
  EXPECT_GE(m.a3, threads.front());
  EXPECT_LE(m.a3, threads.back());
  // The saturated regime is flat-ish for these samples: |a2| well below a1.
  EXPECT_LT(std::abs(m.a2), m.a1);
  // Predictions stay in the data's ballpark at both ends.
  EXPECT_NEAR(m(1.0), 8000.0, 4000.0);
  EXPECT_NEAR(m(8.0), 30000.0, 6000.0);
}

}  // namespace
}  // namespace hemo::microbench
