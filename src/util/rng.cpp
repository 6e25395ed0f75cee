#include "util/rng.hpp"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/log.hpp"

namespace hemo {

std::optional<std::uint64_t> read_seed(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  // Base 0 accepts decimal and 0x-prefixed hex; reject trailing garbage so
  // a typo ("42x") reads as nothing rather than truncating silently.
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0' || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

std::uint64_t parse_seed(const char* text, std::uint64_t fallback) noexcept {
  return read_seed(text).value_or(fallback);
}

std::uint64_t global_seed() noexcept {
  static const std::uint64_t seed = [] {
    // Read exactly once, before any worker thread exists (function-local
    // static init), so the getenv race concurrency-mt-unsafe guards
    // against cannot occur.
    const char* env = std::getenv("HEMO_SEED");  // NOLINT(concurrency-mt-unsafe)
    const std::uint64_t s = parse_seed(env, 42);
    HEMO_LOG_INFO("effective seed %" PRIu64 " (%s)", s,
                  env != nullptr ? "from HEMO_SEED"
                                 : "default; set HEMO_SEED to override");
    return s;
  }();
  return seed;
}

}  // namespace hemo
