// Ordinary least squares for the linear models in the paper.
//
// The paper's communication fit (Eq. 12) enforces latency to equal the
// measured time of a zero-byte message and fits only the bandwidth term
// by least squares ("Curve fits enforce that latency is the communication
// time for 0 bytes and bandwidth depends on all data points", Fig. 6
// caption), so the one line fit needed is a slope fit with a fixed
// intercept.
#pragma once

#include <span>

#include "util/common.hpp"

namespace hemo::fit {

/// Result of a 1-D line fit.
struct Line {
  real_t slope = 0.0;
  real_t intercept = 0.0;

  [[nodiscard]] real_t operator()(real_t x) const noexcept {
    return slope * x + intercept;
  }
};

/// OLS fit of the slope only, with the intercept fixed:
/// minimizes sum_i (y_i - intercept - slope * x_i)^2 over slope.
[[nodiscard]] Line fit_line_fixed_intercept(std::span<const real_t> xs,
                                            std::span<const real_t> ys,
                                            real_t intercept);

/// Linear communication model t(m) = m / bandwidth + latency (Eq. 12).
/// Units follow the data: if m is in bytes and t in seconds, `bandwidth`
/// is bytes/second and `latency` seconds.
struct CommModel {
  real_t bandwidth = 0.0;  ///< b in Eq. 12
  real_t latency = 0.0;    ///< l in Eq. 12

  /// Predicted time for an m-byte message.
  [[nodiscard]] real_t time(real_t message_bytes) const noexcept {
    return message_bytes / bandwidth + latency;
  }
};

/// Fits Eq. 12 the way the paper does: `latency` is taken as the measured
/// time of the smallest message (ideally zero bytes), and the bandwidth is
/// the least-squares slope over all points with that intercept enforced.
/// Requires sizes sorted ascending with at least 2 points.
[[nodiscard]] CommModel fit_comm_model(std::span<const real_t> message_bytes,
                                       std::span<const real_t> times);

}  // namespace hemo::fit
