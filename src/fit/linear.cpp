#include "fit/linear.hpp"

namespace hemo::fit {

Line fit_line_fixed_intercept(std::span<const real_t> xs,
                              std::span<const real_t> ys, real_t intercept) {
  HEMO_REQUIRE(xs.size() == ys.size() && !xs.empty(),
               "fit_line_fixed_intercept needs paired points");
  real_t sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx += xs[i] * xs[i];
    sxy += xs[i] * (ys[i] - intercept);
  }
  if (sxx == 0.0) {
    throw NumericError("fit_line_fixed_intercept: all x are zero");
  }
  return Line{sxy / sxx, intercept};
}

CommModel fit_comm_model(std::span<const real_t> message_bytes,
                         std::span<const real_t> times) {
  HEMO_REQUIRE(message_bytes.size() == times.size() &&
                   message_bytes.size() >= 2,
               "fit_comm_model needs >= 2 paired points");
  for (std::size_t i = 1; i < message_bytes.size(); ++i) {
    HEMO_REQUIRE(message_bytes[i] >= message_bytes[i - 1],
                 "message sizes must be sorted ascending");
  }
  // Latency := measured time for the smallest message. The paper defines
  // latency as the communication time of a zero-byte message; PingPong
  // sweeps here always include m = 0 or m = 1.
  const real_t latency = times[0];
  const Line line =
      fit_line_fixed_intercept(message_bytes, times, latency);
  if (line.slope <= 0.0) {
    throw NumericError("fit_comm_model: non-positive bandwidth slope");
  }
  return CommModel{1.0 / line.slope, latency};
}

}  // namespace hemo::fit
