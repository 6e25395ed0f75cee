#include "fit/stats.hpp"

#include <cmath>

namespace hemo::fit {

real_t mean(std::span<const real_t> xs) {
  HEMO_REQUIRE(!xs.empty(), "mean of empty span");
  real_t sum = 0.0;
  for (real_t x : xs) sum += x;
  return sum / static_cast<real_t>(xs.size());
}

real_t stddev(std::span<const real_t> xs) {
  HEMO_REQUIRE(xs.size() >= 2, "stddev needs at least 2 samples");
  const real_t m = mean(xs);
  real_t acc = 0.0;
  for (real_t x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<real_t>(xs.size() - 1));
}

real_t coefficient_of_variation(std::span<const real_t> xs) {
  const real_t m = mean(xs);
  HEMO_REQUIRE(m != 0.0, "CoV undefined for zero mean");
  return stddev(xs) / m;
}

real_t sse(std::span<const real_t> actual, std::span<const real_t> predicted) {
  HEMO_REQUIRE(actual.size() == predicted.size(), "size mismatch in sse");
  real_t acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const real_t d = actual[i] - predicted[i];
    acc += d * d;
  }
  return acc;
}

real_t r_squared(std::span<const real_t> actual,
                 std::span<const real_t> predicted) {
  HEMO_REQUIRE(actual.size() == predicted.size() && actual.size() >= 2,
               "r_squared needs >= 2 paired samples");
  const real_t m = mean(actual);
  real_t ss_tot = 0.0;
  for (real_t a : actual) ss_tot += (a - m) * (a - m);
  const real_t ss_res = sse(actual, predicted);
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

Summary summarize(std::span<const real_t> xs) {
  Summary s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.cov = s.mean != 0.0 ? s.stddev / s.mean : 0.0;
  s.count = static_cast<index_t>(xs.size());
  return s;
}

}  // namespace hemo::fit
