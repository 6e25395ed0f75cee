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

Summary summarize(std::span<const real_t> xs) {
  Summary s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.cov = s.mean != 0.0 ? s.stddev / s.mean : 0.0;
  s.count = static_cast<index_t>(xs.size());
  return s;
}

}  // namespace hemo::fit
