// Generic SIMD bulk tile kernel + per-ISA vector traits.
//
// One templated kernel (tile_run) implements the segmented bulk update
// over any vector trait class V; each vector backend translation unit
// (simd_avx2.cpp, simd_avx512.cpp) instantiates it with its own traits
// under the ISA flags that TU is compiled with. The trait operations map
// 1:1 onto single IEEE-754 vector instructions, and the kernel performs,
// lane by lane, the exact operation sequence of update_interior_values
// (lbm/point_update.hpp): moments accumulated in direction order, the
// same velocity-shift expressions, equilibria and BGK relaxation in
// direction order, the same left-associated expression trees. Vector
// lanes are independent and nothing is reassociated or contracted (all
// kernel TUs build with -ffp-contract=off), so every backend produces
// bit-identical state for every point.
//
// Layouts: a trait's compile-time kStride is the distance between
// consecutive points' values of one direction — 1 for SoA (contiguous
// streams, plain vector loads/stores) and kQ for AoS (each direction
// strided across rows: gathers, and scatters or lane-by-lane stores).
// Only the memory access differs; the arithmetic is the same code.
//
// Tail policy: the last (w mod kLanes) points of a span are processed as
// one partial group via load_n/store_n — masked loads/stores or masked
// gathers/scatters (AVX2, AVX-512). Inactive lanes compute on zeros (a
// benign 1/0 = inf that is never stored) and are never read from or
// written to memory, so there is no out-of-bounds access for ASan to
// object to and no numeric leakage between spans.
//
// In-place safety (AA steps): each group loads all 19 directions before
// storing any. Within a group the reader of every loaded location is the
// point that will write it (the AA reader==writer property, see
// solver.cpp), and across groups the property guarantees no group reads
// a location another group writes, so group-at-a-time processing is safe
// for the in-place even and odd sweeps.
#pragma once

#include <array>
#include <cstdint>

#include "lbm/kernel_config.hpp"
#include "lbm/lattice.hpp"
#include "lbm/simd.hpp"
#include "util/common.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace hemo::lbm::simd {

/// D3Q19 direction components and weights in storage precision.
template <typename T>
struct LatticeConsts {
  std::array<T, kQ> cx{}, cy{}, cz{}, w{};
};

template <typename T>
[[nodiscard]] constexpr LatticeConsts<T> lattice_consts() {
  LatticeConsts<T> k;
  for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
    k.cx[q] = static_cast<T>(kD3Q19[q].dx);
    k.cy[q] = static_cast<T>(kD3Q19[q].dy);
    k.cz[q] = static_cast<T>(kD3Q19[q].dz);
    k.w[q] = static_cast<T>(kWeights[q]);
  }
  return k;
}

namespace detail_align {
template <typename T>
[[nodiscard]] inline bool is_aligned(const T* p, std::size_t bytes) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) % bytes == 0;
}
}  // namespace detail_align

#if defined(__AVX2__)

/// 256-bit x86 float vectors; masked tails via VMASKMOV (fault-suppressing
/// on inactive lanes, so partial groups never touch memory out of range).
/// Strided (Stride > 1) loads are masked VGATHERs; AVX2 has no scatter, so
/// strided stores write the active lanes one by one.
template <index_t Stride>
struct Avx2VecF {
  using value_type = float;
  using reg = __m256;
  static constexpr index_t kLanes = 8;
  static constexpr index_t kStride = Stride;
  static __m256i tail_mask(index_t n) noexcept {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static __m256i lane_index() noexcept {
    constexpr int s = static_cast<int>(Stride);
    return _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
  }
  static reg load(const float* p) noexcept {
    if constexpr (Stride == 1) {
      return _mm256_loadu_ps(p);
    } else {
      return _mm256_i32gather_ps(p, lane_index(), 4);
    }
  }
  static reg load_n(const float* p, index_t n) noexcept {
    if constexpr (Stride == 1) {
      return _mm256_maskload_ps(p, tail_mask(n));
    } else {
      return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), p, lane_index(),
                                      _mm256_castsi256_ps(tail_mask(n)), 4);
    }
  }
  static void store(float* p, reg v) noexcept {
    if constexpr (Stride == 1) {
      _mm256_storeu_ps(p, v);
    } else {
      store_lanes(p, v, kLanes);
    }
  }
  static void store_n(float* p, reg v, index_t n) noexcept {
    if constexpr (Stride == 1) {
      _mm256_maskstore_ps(p, tail_mask(n), v);
    } else {
      store_lanes(p, v, n);
    }
  }
  static void store_lanes(float* p, reg v, index_t n) noexcept {
    alignas(32) float lane[kLanes];
    _mm256_store_ps(lane, v);
    for (index_t l = 0; l < n; ++l) p[l * Stride] = lane[l];
  }
  static void stream(float* p, reg v) noexcept { _mm256_stream_ps(p, v); }
  static bool aligned(const float* p) noexcept {
    return detail_align::is_aligned(p, 32);
  }
  static reg set1(float v) noexcept { return _mm256_set1_ps(v); }
  static reg zero() noexcept { return _mm256_setzero_ps(); }
  static reg add(reg a, reg b) noexcept { return _mm256_add_ps(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm256_sub_ps(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm256_mul_ps(a, b); }
  static reg div(reg a, reg b) noexcept { return _mm256_div_ps(a, b); }
};

/// 256-bit x86 double vectors.
template <index_t Stride>
struct Avx2VecD {
  using value_type = double;
  using reg = __m256d;
  static constexpr index_t kLanes = 4;
  static constexpr index_t kStride = Stride;
  static __m256i tail_mask(index_t n) noexcept {
    return _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(n)),
        _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static __m256i lane_index() noexcept {
    constexpr long long s = Stride;
    return _mm256_setr_epi64x(0, s, 2 * s, 3 * s);
  }
  static reg load(const double* p) noexcept {
    if constexpr (Stride == 1) {
      return _mm256_loadu_pd(p);
    } else {
      return _mm256_i64gather_pd(p, lane_index(), 8);
    }
  }
  static reg load_n(const double* p, index_t n) noexcept {
    if constexpr (Stride == 1) {
      return _mm256_maskload_pd(p, tail_mask(n));
    } else {
      return _mm256_mask_i64gather_pd(_mm256_setzero_pd(), p, lane_index(),
                                      _mm256_castsi256_pd(tail_mask(n)), 8);
    }
  }
  static void store(double* p, reg v) noexcept {
    if constexpr (Stride == 1) {
      _mm256_storeu_pd(p, v);
    } else {
      store_lanes(p, v, kLanes);
    }
  }
  static void store_n(double* p, reg v, index_t n) noexcept {
    if constexpr (Stride == 1) {
      _mm256_maskstore_pd(p, tail_mask(n), v);
    } else {
      store_lanes(p, v, n);
    }
  }
  static void store_lanes(double* p, reg v, index_t n) noexcept {
    alignas(32) double lane[kLanes];
    _mm256_store_pd(lane, v);
    for (index_t l = 0; l < n; ++l) p[l * Stride] = lane[l];
  }
  static void stream(double* p, reg v) noexcept { _mm256_stream_pd(p, v); }
  static bool aligned(const double* p) noexcept {
    return detail_align::is_aligned(p, 32);
  }
  static reg set1(double v) noexcept { return _mm256_set1_pd(v); }
  static reg zero() noexcept { return _mm256_setzero_pd(); }
  static reg add(reg a, reg b) noexcept { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm256_mul_pd(a, b); }
  static reg div(reg a, reg b) noexcept { return _mm256_div_pd(a, b); }
};

#endif  // __AVX2__

#if defined(__AVX512F__)

/// 512-bit x86 float vectors; native predication makes the tail a single
/// masked group, so even the short RLE spans of sparse geometries run
/// fully vectorized. Strided (Stride > 1) groups use (masked) VGATHERDPS /
/// VSCATTERDPS, which leave inactive lanes' memory untouched.
template <index_t Stride>
struct Avx512VecF {
  using value_type = float;
  using reg = __m512;
  static constexpr index_t kLanes = 16;
  static constexpr index_t kStride = Stride;
  static __mmask16 tail_mask(index_t n) noexcept {
    return static_cast<__mmask16>((1U << n) - 1U);
  }
  static __m512i lane_index() noexcept {
    constexpr int s = static_cast<int>(Stride);
    return _mm512_set_epi32(15 * s, 14 * s, 13 * s, 12 * s, 11 * s, 10 * s,
                            9 * s, 8 * s, 7 * s, 6 * s, 5 * s, 4 * s, 3 * s,
                            2 * s, s, 0);
  }
  static reg load(const float* p) noexcept {
    if constexpr (Stride == 1) {
      return _mm512_loadu_ps(p);
    } else {
      return _mm512_i32gather_ps(lane_index(), p, 4);
    }
  }
  static reg load_n(const float* p, index_t n) noexcept {
    if constexpr (Stride == 1) {
      return _mm512_maskz_loadu_ps(tail_mask(n), p);
    } else {
      return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), tail_mask(n),
                                      lane_index(), p, 4);
    }
  }
  static void store(float* p, reg v) noexcept {
    if constexpr (Stride == 1) {
      _mm512_storeu_ps(p, v);
    } else {
      _mm512_i32scatter_ps(p, lane_index(), v, 4);
    }
  }
  static void store_n(float* p, reg v, index_t n) noexcept {
    if constexpr (Stride == 1) {
      _mm512_mask_storeu_ps(p, tail_mask(n), v);
    } else {
      _mm512_mask_i32scatter_ps(p, tail_mask(n), lane_index(), v, 4);
    }
  }
  static void stream(float* p, reg v) noexcept { _mm512_stream_ps(p, v); }
  static bool aligned(const float* p) noexcept {
    return detail_align::is_aligned(p, 64);
  }
  static reg set1(float v) noexcept { return _mm512_set1_ps(v); }
  static reg zero() noexcept { return _mm512_setzero_ps(); }
  static reg add(reg a, reg b) noexcept { return _mm512_add_ps(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm512_sub_ps(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm512_mul_ps(a, b); }
  static reg div(reg a, reg b) noexcept { return _mm512_div_ps(a, b); }
};

/// 512-bit x86 double vectors; strided groups use VGATHERQPD /
/// VSCATTERQPD.
template <index_t Stride>
struct Avx512VecD {
  using value_type = double;
  using reg = __m512d;
  static constexpr index_t kLanes = 8;
  static constexpr index_t kStride = Stride;
  static __mmask8 tail_mask(index_t n) noexcept {
    return static_cast<__mmask8>((1U << n) - 1U);
  }
  static __m512i lane_index() noexcept {
    constexpr long long s = Stride;
    return _mm512_set_epi64(7 * s, 6 * s, 5 * s, 4 * s, 3 * s, 2 * s, s, 0);
  }
  static reg load(const double* p) noexcept {
    if constexpr (Stride == 1) {
      return _mm512_loadu_pd(p);
    } else {
      return _mm512_i64gather_pd(lane_index(), p, 8);
    }
  }
  static reg load_n(const double* p, index_t n) noexcept {
    if constexpr (Stride == 1) {
      return _mm512_maskz_loadu_pd(tail_mask(n), p);
    } else {
      return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), tail_mask(n),
                                      lane_index(), p, 8);
    }
  }
  static void store(double* p, reg v) noexcept {
    if constexpr (Stride == 1) {
      _mm512_storeu_pd(p, v);
    } else {
      _mm512_i64scatter_pd(p, lane_index(), v, 8);
    }
  }
  static void store_n(double* p, reg v, index_t n) noexcept {
    if constexpr (Stride == 1) {
      _mm512_mask_storeu_pd(p, tail_mask(n), v);
    } else {
      _mm512_mask_i64scatter_pd(p, tail_mask(n), lane_index(), v, 8);
    }
  }
  static void stream(double* p, reg v) noexcept { _mm512_stream_pd(p, v); }
  static bool aligned(const double* p) noexcept {
    return detail_align::is_aligned(p, 64);
  }
  static reg set1(double v) noexcept { return _mm512_set1_pd(v); }
  static reg zero() noexcept { return _mm512_setzero_pd(); }
  static reg add(reg a, reg b) noexcept { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm512_mul_pd(a, b); }
  static reg div(reg a, reg b) noexcept { return _mm512_div_pd(a, b); }
};

#endif  // __AVX512F__

/// One group of `active` (<= V::kLanes) consecutive points starting at
/// point i of the 19 per-direction streams (values V::kStride apart): the
/// vectorized update_interior_values.
template <typename V, bool AllowNt>
inline void tile_point_group(
    const typename V::value_type* const* src,
    typename V::value_type* const* dst, index_t i, index_t active,
    typename V::value_type omega,
    const std::array<typename V::value_type, 3>& force_shift,
    [[maybe_unused]] const std::array<bool, kQ>& nt_ok) {
  using T = typename V::value_type;
  using R = typename V::reg;
  constexpr LatticeConsts<T> k = lattice_consts<T>();
  const bool full = active == V::kLanes;
  const index_t at = i * V::kStride;

  // Gather arrivals and accumulate moments in direction order — the exact
  // sequence of update_interior_values, including the multiplications by
  // zero direction components.
  R g[kQ];
  R rho = V::zero(), jx = V::zero(), jy = V::zero(), jz = V::zero();
  for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
    g[q] = full ? V::load(src[q] + at) : V::load_n(src[q] + at, active);
    rho = V::add(rho, g[q]);
    jx = V::add(jx, V::mul(g[q], V::set1(k.cx[q])));
    jy = V::add(jy, V::mul(g[q], V::set1(k.cy[q])));
    jz = V::add(jz, V::mul(g[q], V::set1(k.cz[q])));
  }
  const R inv_rho = V::div(V::set1(T{1}), rho);
  const R ux = V::mul(jx, inv_rho);
  const R uy = V::mul(jy, inv_rho);
  const R uz = V::mul(jz, inv_rho);
  const R fx = V::add(ux, V::mul(V::set1(force_shift[0]), inv_rho));
  const R fy = V::add(uy, V::mul(V::set1(force_shift[1]), inv_rho));
  const R fz = V::add(uz, V::mul(V::set1(force_shift[2]), inv_rho));

  // u^2 is identical for every direction, so hoisting it out of the
  // per-direction equilibrium changes no bits.
  const R u2 = V::add(V::add(V::mul(fx, fx), V::mul(fy, fy)),
                      V::mul(fz, fz));
  // equilibrium<T>(q, rho, fx, fy, fz) with the scalar code's expression
  // tree: w * rho * ((1 + 3 cu + 4.5 cu^2) - 1.5 u^2).
  const auto feq_q = [&](std::size_t q) {
    const R cu = V::add(V::add(V::mul(V::set1(k.cx[q]), fx),
                               V::mul(V::set1(k.cy[q]), fy)),
                        V::mul(V::set1(k.cz[q]), fz));
    const R poly = V::sub(
        V::add(V::add(V::set1(T{1}), V::mul(V::set1(T{3}), cu)),
               V::mul(V::mul(V::set1(T{4.5}), cu), cu)),
        V::mul(V::set1(T{1.5}), u2));
    return V::mul(V::mul(V::set1(k.w[q]), rho), poly);
  };

  const R omega_v = V::set1(omega);
  for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
    const R feq = feq_q(q);
    const R out = V::add(g[q], V::mul(omega_v, V::sub(feq, g[q])));
    if (full) {
      if constexpr (AllowNt) {
        if (nt_ok[q]) {
          V::stream(dst[q] + at, out);
          continue;
        }
      }
      V::store(dst[q] + at, out);
    } else {
      V::store_n(dst[q] + at, out, active);
    }
  }
}

/// Drives tile_point_group over w consecutive points: full-width groups
/// plus at most one partial group. With AllowNt, full-width groups whose
/// destination stream is vector-aligned use streaming stores (group
/// offsets advance by whole vectors, so base alignment decides the whole
/// call). Streaming stores need contiguous streams: a scatter has no
/// streaming form.
template <typename V, bool AllowNt>
void tile_run(const typename V::value_type* const* src,
              typename V::value_type* const* dst, index_t w,
              typename V::value_type omega,
              const std::array<typename V::value_type, 3>& force_shift) {
  static_assert(!AllowNt || V::kStride == 1,
                "streaming stores need unit-stride streams");
  std::array<bool, kQ> nt_ok{};
  if constexpr (AllowNt) {
    for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
      nt_ok[q] = V::aligned(dst[q]);
    }
  }
  index_t i = 0;
  for (; i + V::kLanes <= w; i += V::kLanes) {
    tile_point_group<V, AllowNt>(src, dst, i, V::kLanes, omega, force_shift,
                                 nt_ok);
  }
  if (i < w) {
    tile_point_group<V, AllowNt>(src, dst, i, w - i, omega, force_shift,
                                 nt_ok);
  }
}

/// The tile of vector trait family V<Stride> for `layout`: strided and
/// plain-store for AoS (`nt_stores` does not apply), unit-stride with or
/// without streaming stores for SoA.
template <template <index_t> class V>
[[nodiscard]] TileFn<typename V<1>::value_type> strided_tile(
    Layout layout, bool nt_stores) {
  if (layout == Layout::kAoS) return &tile_run<V<kQ>, false>;
  return nt_stores ? &tile_run<V<1>, true> : &tile_run<V<1>, false>;
}

}  // namespace hemo::lbm::simd
