// Summary statistics used across the fitting and benchmarking layers.
#pragma once

#include <span>

#include "util/common.hpp"

namespace hemo::fit {

/// Arithmetic mean. Requires a non-empty span.
[[nodiscard]] real_t mean(std::span<const real_t> xs);

/// Sample standard deviation (n-1 denominator). Requires at least 2 samples.
[[nodiscard]] real_t stddev(std::span<const real_t> xs);

/// Population summary produced by repeated noisy measurements (Table IV).
struct Summary {
  real_t mean = 0.0;
  real_t stddev = 0.0;
  real_t cov = 0.0;  ///< coefficient of variation
  index_t count = 0;
};

/// Computes mean / stddev / CoV in one pass. Requires >= 2 samples.
[[nodiscard]] Summary summarize(std::span<const real_t> xs);

}  // namespace hemo::fit
