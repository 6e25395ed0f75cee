#include "lbm/simd.hpp"

#include <algorithm>
#include <cctype>

#include "lbm/simd_backends.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hemo::lbm::simd {

namespace {

/// Widest-first order in which kAuto considers backends.
constexpr Backend kPreferenceOrder[] = {Backend::kAVX512, Backend::kAVX2,
                                        Backend::kScalar};

[[nodiscard]] bool compiled(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAVX2:
#ifdef HEMO_SIMD_HAVE_AVX2
      return true;
#else
      return false;
#endif
    case Backend::kAVX512:
#ifdef HEMO_SIMD_HAVE_AVX512
      return true;
#else
      return false;
#endif
    case Backend::kAuto:
      return false;
  }
  return false;
}

[[nodiscard]] std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

}  // namespace

std::vector<Backend> compiled_backends() {
  std::vector<Backend> out;
  for (const Backend b : kPreferenceOrder) {
    if (compiled(b)) out.push_back(b);
  }
  return out;
}

bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAVX2:
    case Backend::kAVX512:
#if defined(__x86_64__) || defined(__i386__)
      if (b == Backend::kAVX2) return __builtin_cpu_supports("avx2") != 0;
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case Backend::kAuto:
      return false;
  }
  return false;
}

std::vector<Backend> detected_backends() {
  std::vector<Backend> out;
  for (const Backend b : kPreferenceOrder) {
    if (compiled(b) && cpu_supports(b)) out.push_back(b);
  }
  return out;
}

std::optional<Backend> parse_backend(std::string_view name) {
  const std::string n = lower(name);
  if (n == "auto") return Backend::kAuto;
  if (n == "scalar") return Backend::kScalar;
  if (n == "avx2") return Backend::kAVX2;
  if (n == "avx512") return Backend::kAVX512;
  return std::nullopt;
}

Backend resolve_backend(Backend requested) {
  if (requested == Backend::kAuto) {
    // detected_backends() always contains kScalar.
    return detected_backends().front();
  }
  HEMO_REQUIRE(compiled(requested),
               "requested SIMD backend is not compiled into this binary "
               "(see the HEMO_SIMD CMake option)");
  HEMO_REQUIRE(cpu_supports(requested),
               "requested SIMD backend is not supported by this CPU");
  return requested;
}

template <>
TileFn<float> tile_kernel<float>(Backend b, Layout layout, bool nt_stores) {
  switch (b) {
    case Backend::kScalar:
      return detail::scalar_tile_f32(layout, nt_stores);
#ifdef HEMO_SIMD_HAVE_AVX2
    case Backend::kAVX2:
      return detail::avx2_tile_f32(layout, nt_stores);
#endif
#ifdef HEMO_SIMD_HAVE_AVX512
    case Backend::kAVX512:
      return detail::avx512_tile_f32(layout, nt_stores);
#endif
    default:
      return nullptr;
  }
}

template <>
TileFn<double> tile_kernel<double>(Backend b, Layout layout,
                                   bool nt_stores) {
  switch (b) {
    case Backend::kScalar:
      return detail::scalar_tile_f64(layout, nt_stores);
#ifdef HEMO_SIMD_HAVE_AVX2
    case Backend::kAVX2:
      return detail::avx2_tile_f64(layout, nt_stores);
#endif
#ifdef HEMO_SIMD_HAVE_AVX512
    case Backend::kAVX512:
      return detail::avx512_tile_f64(layout, nt_stores);
#endif
    default:
      return nullptr;
  }
}

void store_fence(Backend b) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // Streaming stores bypass the normal store ordering; fence them ahead
  // of whatever flag or barrier publishes the data to other threads.
  if (b == Backend::kAVX2 || b == Backend::kAVX512) {
    _mm_sfence();
  }
#else
  (void)b;
#endif
}

index_t lanes(Backend b, index_t bytes) noexcept {
  const index_t width = [&]() -> index_t {
    switch (b) {
      case Backend::kAVX2:
        return 32;
      case Backend::kAVX512:
        return 64;
      case Backend::kScalar:
      case Backend::kAuto:
        return 0;
    }
    return 0;
  }();
  return width == 0 ? 1 : width / bytes;
}

}  // namespace hemo::lbm::simd
