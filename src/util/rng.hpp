// Deterministic random number generation.
//
// All stochastic behaviour in HemoCloud (cloud noise, synthetic workload
// jitter) flows through these generators so that every experiment is exactly
// reproducible from its seed. We implement SplitMix64 (for seeding / hashing
// seed tuples) and xoshiro256** (bulk generation), both public-domain
// algorithms by Blackman & Vigna.
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

#include "util/common.hpp"

namespace hemo {

/// Reads a seed from all of `text` with strtoull base-0 syntax (decimal,
/// 0x-prefixed hex, 0-prefixed octal). Null or empty text, trailing
/// characters and values past 2^64-1 read as nothing.
[[nodiscard]] std::optional<std::uint64_t> read_seed(const char* text) noexcept;

/// read_seed(text), or `fallback` when that reads nothing. Exposed
/// separately from global_seed() so the parsing rules are unit-testable
/// without touching the process environment cache.
[[nodiscard]] std::uint64_t parse_seed(const char* text,
                                       std::uint64_t fallback) noexcept;

/// Reads all of `text` as a T through std::from_chars: base 10 for
/// integers, no sign but a leading '-', no whitespace, no trailing
/// characters, in range of T, and finite for reals. So "6x", "" and, for
/// std::uint16_t, "70000" read as nothing.
template <typename T>
[[nodiscard]] std::optional<T> read_number(std::string_view text) noexcept {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  const bool whole = error == std::errc{} && stop == end;
  return whole && std::isfinite(value) ? std::optional(value) : std::nullopt;
}

/// The process-wide default seed: the HEMO_SEED environment variable when
/// set, else 42. Read once and cached, and the effective value is logged to
/// stderr on first use, so any test or bench run is reproducible from the
/// shell (`HEMO_SEED=123 ctest ...` replays the exact streams).
[[nodiscard]] std::uint64_t global_seed() noexcept;

/// SplitMix64: used to expand a single 64-bit seed into independent streams
/// and to hash seed tuples (instance id, day, hour, rank) into seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Combine an arbitrary number of 64-bit values into one seed.
/// Order-sensitive, so (a, b) and (b, a) give different streams.
template <typename... Parts>
std::uint64_t hash_seed(std::uint64_t first, Parts... rest) noexcept {
  std::uint64_t h = SplitMix64(first).next();
  ((h = SplitMix64(h ^ static_cast<std::uint64_t>(rest)).next()), ...);
  return h;
}

/// xoshiro256**: fast, high-quality 64-bit PRNG for bulk draws.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Standard normal deviate via Marsaglia polar method (deterministic,
  /// no state beyond the generator itself: the spare value is discarded
  /// so draws depend only on the stream position).
  double gaussian() noexcept {
    for (;;) {
      const double u = uniform(-1.0, 1.0);
      const double v = uniform(-1.0, 1.0);
      const double s = u * u + v * v;
      if (s > 0.0 && s < 1.0) {
        return u * std::sqrt(-2.0 * std::log(s) / s);
      }
    }
  }

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept {
    return mean + stddev * gaussian();
  }

  /// Integer in [0, n). Requires n > 0.
  index_t below(index_t n) noexcept {
    return static_cast<index_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace hemo
