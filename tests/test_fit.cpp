// Unit tests for the fitting substrate: statistics, linear and constrained
// fits, the two-line law (Eq. 8), the nonlinear log-models (Eqs. 11, 15),
// interpolation, and the Nelder-Mead minimizer.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fit/interp.hpp"
#include "fit/linear.hpp"
#include "fit/log_models.hpp"
#include "fit/minimize.hpp"
#include "fit/stats.hpp"
#include "fit/two_line.hpp"
#include "util/rng.hpp"

namespace hemo::fit {
namespace {

TEST(Stats, MeanAndStddev) {
  const std::vector<real_t> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
  EXPECT_NEAR(summarize(xs).cov, 2.138 / 5.0, 1e-3);
}

TEST(Stats, SummaryMatchesPieces) {
  const std::vector<real_t> xs = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, mean(xs));
  EXPECT_DOUBLE_EQ(s.stddev, stddev(xs));
  EXPECT_EQ(s.count, 4);
}

TEST(Stats, PreconditionsThrow) {
  const std::vector<real_t> empty;
  EXPECT_THROW((void)mean(empty), PreconditionError);
  const std::vector<real_t> one = {1.0};
  EXPECT_THROW((void)stddev(one), PreconditionError);
}

TEST(LinearFit, FixedInterceptMinimizesSlopeOnly) {
  const std::vector<real_t> xs = {1.0, 2.0, 3.0};
  const std::vector<real_t> ys = {3.0, 5.0, 7.0};  // y = 2x + 1
  const Line line = fit_line_fixed_intercept(xs, ys, 1.0);
  EXPECT_NEAR(line.slope, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(line.intercept, 1.0);
}

TEST(CommModelFit, LatencyAnchoredAtZeroByteMessage) {
  // t(m) = m / b + l with b = 2000 B/us-equivalent, l = 5.
  std::vector<real_t> sizes, times;
  for (real_t m : {0.0, 64.0, 1024.0, 65536.0, 1048576.0}) {
    sizes.push_back(m);
    times.push_back(m / 2000.0 + 5.0);
  }
  const CommModel cm = fit_comm_model(sizes, times);
  EXPECT_DOUBLE_EQ(cm.latency, 5.0);
  EXPECT_NEAR(cm.bandwidth, 2000.0, 1e-6);
  EXPECT_NEAR(cm.time(4096.0), 4096.0 / 2000.0 + 5.0, 1e-9);
}

TEST(CommModelFit, UnsortedSizesRejected) {
  const std::vector<real_t> sizes = {10.0, 5.0};
  const std::vector<real_t> times = {1.0, 1.0};
  EXPECT_THROW((void)fit_comm_model(sizes, times), PreconditionError);
}

TEST(TwoLineFit, RecoversNoiselessParameters) {
  const TwoLineModel truth{7790.0, 1264.8, 9.0};
  std::vector<real_t> xs, ys;
  for (index_t n = 1; n <= 36; ++n) {
    xs.push_back(static_cast<real_t>(n));
    ys.push_back(truth(static_cast<real_t>(n)));
  }
  const TwoLineModel m = fit_two_line(xs, ys);
  EXPECT_NEAR(m.a1, truth.a1, truth.a1 * 0.02);
  EXPECT_NEAR(m.a2, truth.a2, std::abs(truth.a2) * 0.05);
  EXPECT_NEAR(m.a3, truth.a3, 0.5);
  // Residual SSE small relative to the data's magnitude (the scanned
  // breakpoint lands within grid resolution of the true knee).
  real_t scale = 0.0;
  for (real_t y : ys) scale += y * y;
  EXPECT_LT(two_line_sse(m, xs, ys), 1e-8 * scale);
}

TEST(TwoLineFit, RecoversUnderNoise) {
  const TwoLineModel truth{6768.24, 369.16, 6.39};
  Xoshiro256 rng(42);
  std::vector<real_t> xs, ys;
  for (index_t n = 1; n <= 40; ++n) {
    xs.push_back(static_cast<real_t>(n));
    ys.push_back(truth(static_cast<real_t>(n)) *
                 (1.0 + 0.01 * rng.gaussian()));
  }
  const TwoLineModel m = fit_two_line(xs, ys);
  EXPECT_NEAR(m.a1, truth.a1, truth.a1 * 0.05);
  EXPECT_NEAR(m.a3, truth.a3, 1.5);
}

TEST(TwoLineFit, NegativeSaturatedSlope) {
  // CSP-2 Hyp. has a2 < 0 (hyperthreads reduce bandwidth past the knee).
  const TwoLineModel truth{8629.29, -93.43, 9.87};
  std::vector<real_t> xs, ys;
  for (index_t n = 1; n <= 72; ++n) {
    xs.push_back(static_cast<real_t>(n));
    ys.push_back(truth(static_cast<real_t>(n)));
  }
  const TwoLineModel m = fit_two_line(xs, ys);
  EXPECT_LT(m.a2, 0.0);
  EXPECT_NEAR(m.a3, truth.a3, 1.0);
}

TEST(TwoLineModel, ContinuousAtBreakpoint) {
  const TwoLineModel m{100.0, 10.0, 8.0};
  EXPECT_NEAR(m(8.0 - 1e-9), m(8.0 + 1e-9), 1e-5);
  EXPECT_DOUBLE_EQ(m(8.0), 100.0 * 8.0);
}

TEST(NelderMead, MinimizesRosenbrockLikeBowl) {
  const auto f = [](real_t x, real_t y) {
    return (x - 3.0) * (x - 3.0) + 10.0 * (y + 1.5) * (y + 1.5);
  };
  const MinimizeResult r = nelder_mead_2d(f, {0.0, 0.0}, {1.0, 1.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 3.0, 1e-4);
  EXPECT_NEAR(r.x[1], -1.5, 1e-4);
}

TEST(ImbalanceModel, ZIsOneForSerialAndGrows) {
  const ImbalanceModel m{0.2, 0.05};
  EXPECT_DOUBLE_EQ(m.z(1.0), 1.0);
  EXPECT_GT(m.z(64.0), m.z(8.0));
  EXPECT_GT(m.z(8.0), 1.0);
}

TEST(ImbalanceFit, RecoversParameters) {
  const ImbalanceModel truth{0.18, 0.07};
  std::vector<real_t> ns, zs;
  for (real_t n : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0}) {
    ns.push_back(n);
    zs.push_back(truth.z(n));
  }
  const ImbalanceModel m = fit_imbalance(ns, zs);
  for (real_t n : ns) {
    EXPECT_NEAR(m.z(n), truth.z(n), 0.02) << "n = " << n;
  }
}

TEST(EventCountModel, ZeroWithinOneNodeAndGrows) {
  const EventCountModel m{2.0, 0.2};
  EXPECT_DOUBLE_EQ(m.events(4.0, 4.0), 0.0);
  EXPECT_GT(m.events(64.0, 2.0), m.events(16.0, 2.0));
}

TEST(EventCountFit, RecoversShape) {
  const EventCountModel truth{3.0, 0.15};
  std::vector<real_t> ns, nodes, events;
  for (real_t n : {8.0, 16.0, 32.0, 64.0, 128.0}) {
    for (real_t nn : {2.0, 4.0}) {
      ns.push_back(n);
      nodes.push_back(nn);
      events.push_back(truth.events(n, nn));
    }
  }
  const EventCountModel m = fit_event_count(ns, nodes, events);
  for (std::size_t i = 0; i < ns.size(); ++i) {
    EXPECT_NEAR(m.events(ns[i], nodes[i]), events[i],
                0.05 * events[i] + 0.5);
  }
}

TEST(Interp1D, InterpolatesAndExtrapolates) {
  Interp1D interp({0.0, 1.0, 3.0}, {0.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(interp(0.5), 1.0);
  EXPECT_DOUBLE_EQ(interp(2.0), 3.0);
  EXPECT_DOUBLE_EQ(interp(4.0), 5.0);   // edge-slope extrapolation
  EXPECT_DOUBLE_EQ(interp(-1.0), -2.0);
}

TEST(Interp1D, RejectsNonIncreasingX) {
  EXPECT_THROW(Interp1D({0.0, 0.0}, {1.0, 2.0}), PreconditionError);
}

}  // namespace
}  // namespace hemo::fit
