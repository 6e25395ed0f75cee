// Generic SIMD bulk tile kernel + per-ISA vector traits.
//
// One templated kernel (tile_run) implements the segmented SoA bulk update
// over any vector trait class V; each backend translation unit
// (simd_scalar.cpp, simd_avx2.cpp, simd_avx512.cpp)
// instantiates it with its own traits under the ISA flags that TU is
// compiled with. The trait operations map 1:1 onto single
// IEEE-754 vector instructions, and the kernel performs, lane by lane,
// the exact operation sequence of update_interior_values
// (lbm/point_update.hpp): moments accumulated in direction order, the
// same velocity-shift expressions, equilibria and BGK relaxation in
// direction order, the same left-associated expression trees. Vector
// lanes are independent and nothing is reassociated or contracted (all
// kernel TUs build with -ffp-contract=off), so every backend produces
// bit-identical state for every point.
//
// Tail policy: the last (w mod kLanes) points of a span are processed as
// one partial group via load_n/store_n — masked loads/stores (AVX2,
// AVX-512; the scalar trait is one lane wide). Inactive lanes compute on
// zeros (a benign 1/0 = inf that is never
// stored) and are never read from or written to memory, so there is no
// out-of-bounds access for ASan to object to and no numeric leakage
// between spans.
//
// In-place safety (AA steps): each group loads all 19 directions before
// storing any. Within a group the reader of every loaded location is the
// point that will write it (the AA reader==writer property, see
// solver.cpp), and across groups the property guarantees no group reads
// a location another group writes, so group-at-a-time processing is safe
// for the in-place even and odd sweeps.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "lbm/kernel_config.hpp"
#include "lbm/lattice.hpp"
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

/// Lane-1 trait: plain scalar arithmetic. Used by the scalar backend's
/// LES kernel and as the semantic reference for every vector trait.
template <typename T>
struct ScalarVec {
  using value_type = T;
  using reg = T;
  static constexpr index_t kLanes = 1;
  static reg load(const T* p) noexcept { return *p; }
  static reg load_n(const T* p, index_t) noexcept { return *p; }
  static void store(T* p, reg v) noexcept { *p = v; }
  static void store_n(T* p, reg v, index_t) noexcept { *p = v; }
  static void stream(T* p, reg v) noexcept { *p = v; }
  static bool aligned(const T*) noexcept { return false; }
  static reg set1(T v) noexcept { return v; }
  static reg zero() noexcept { return T{0}; }
  static reg add(reg a, reg b) noexcept { return a + b; }
  static reg sub(reg a, reg b) noexcept { return a - b; }
  static reg mul(reg a, reg b) noexcept { return a * b; }
  static reg div(reg a, reg b) noexcept { return a / b; }
  static reg sqrt(reg a) noexcept { return std::sqrt(a); }
};

namespace detail_align {
template <typename T>
[[nodiscard]] inline bool is_aligned(const T* p, std::size_t bytes) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) % bytes == 0;
}
}  // namespace detail_align

#if defined(__AVX2__)

/// 256-bit x86 float vectors; masked tails via VMASKMOV (fault-suppressing
/// on inactive lanes, so partial groups never touch memory out of range).
struct Avx2VecF {
  using value_type = float;
  using reg = __m256;
  static constexpr index_t kLanes = 8;
  static __m256i tail_mask(index_t n) noexcept {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static reg load(const float* p) noexcept { return _mm256_loadu_ps(p); }
  static reg load_n(const float* p, index_t n) noexcept {
    return _mm256_maskload_ps(p, tail_mask(n));
  }
  static void store(float* p, reg v) noexcept { _mm256_storeu_ps(p, v); }
  static void store_n(float* p, reg v, index_t n) noexcept {
    _mm256_maskstore_ps(p, tail_mask(n), v);
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
  static reg sqrt(reg a) noexcept { return _mm256_sqrt_ps(a); }
};

/// 256-bit x86 double vectors.
struct Avx2VecD {
  using value_type = double;
  using reg = __m256d;
  static constexpr index_t kLanes = 4;
  static __m256i tail_mask(index_t n) noexcept {
    return _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(n)),
        _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static reg load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static reg load_n(const double* p, index_t n) noexcept {
    return _mm256_maskload_pd(p, tail_mask(n));
  }
  static void store(double* p, reg v) noexcept { _mm256_storeu_pd(p, v); }
  static void store_n(double* p, reg v, index_t n) noexcept {
    _mm256_maskstore_pd(p, tail_mask(n), v);
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
  static reg sqrt(reg a) noexcept { return _mm256_sqrt_pd(a); }
};

#endif  // __AVX2__

#if defined(__AVX512F__)

/// 512-bit x86 float vectors; native predication makes the tail a single
/// masked group, so even the short RLE spans of sparse geometries run
/// fully vectorized.
struct Avx512VecF {
  using value_type = float;
  using reg = __m512;
  static constexpr index_t kLanes = 16;
  static __mmask16 tail_mask(index_t n) noexcept {
    return static_cast<__mmask16>((1U << n) - 1U);
  }
  static reg load(const float* p) noexcept { return _mm512_loadu_ps(p); }
  static reg load_n(const float* p, index_t n) noexcept {
    return _mm512_maskz_loadu_ps(tail_mask(n), p);
  }
  static void store(float* p, reg v) noexcept { _mm512_storeu_ps(p, v); }
  static void store_n(float* p, reg v, index_t n) noexcept {
    _mm512_mask_storeu_ps(p, tail_mask(n), v);
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
  static reg sqrt(reg a) noexcept { return _mm512_sqrt_ps(a); }
};

/// 512-bit x86 double vectors.
struct Avx512VecD {
  using value_type = double;
  using reg = __m512d;
  static constexpr index_t kLanes = 8;
  static __mmask8 tail_mask(index_t n) noexcept {
    return static_cast<__mmask8>((1U << n) - 1U);
  }
  static reg load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static reg load_n(const double* p, index_t n) noexcept {
    return _mm512_maskz_loadu_pd(tail_mask(n), p);
  }
  static void store(double* p, reg v) noexcept { _mm512_storeu_pd(p, v); }
  static void store_n(double* p, reg v, index_t n) noexcept {
    _mm512_mask_storeu_pd(p, tail_mask(n), v);
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
  static reg sqrt(reg a) noexcept { return _mm512_sqrt_pd(a); }
};

#endif  // __AVX512F__

/// One group of `active` (<= V::kLanes) consecutive points at offset i of
/// the 19 per-direction streams: the vectorized update_interior_values.
template <typename V, bool WithLes, bool AllowNt>
inline void tile_point_group(
    const typename V::value_type* const* src,
    typename V::value_type* const* dst, index_t i, index_t active,
    typename V::value_type omega,
    const std::array<typename V::value_type, 3>& force_shift,
    [[maybe_unused]] typename V::value_type cs2,
    [[maybe_unused]] const std::array<bool, kQ>& nt_ok) {
  using T = typename V::value_type;
  using R = typename V::reg;
  constexpr LatticeConsts<T> k = lattice_consts<T>();
  const bool full = active == V::kLanes;

  // Gather arrivals and accumulate moments in direction order — the exact
  // sequence of update_interior_values, including the multiplications by
  // zero direction components.
  R g[kQ];
  R rho = V::zero(), jx = V::zero(), jy = V::zero(), jz = V::zero();
  for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
    g[q] = full ? V::load(src[q] + i) : V::load_n(src[q] + i, active);
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

  R omega_eff = V::set1(omega);
  if constexpr (WithLes) {
    // Smagorinsky eddy viscosity from the non-equilibrium momentum flux —
    // the vector transcription of the WithLes block of
    // update_interior_values.
    R pxx = V::zero(), pyy = V::zero(), pzz = V::zero();
    R pxy = V::zero(), pxz = V::zero(), pyz = V::zero();
    for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
      const R fneq = V::sub(g[q], feq_q(q));
      const R fcx = V::mul(fneq, V::set1(k.cx[q]));
      const R fcy = V::mul(fneq, V::set1(k.cy[q]));
      const R fcz = V::mul(fneq, V::set1(k.cz[q]));
      pxx = V::add(pxx, V::mul(fcx, V::set1(k.cx[q])));
      pyy = V::add(pyy, V::mul(fcy, V::set1(k.cy[q])));
      pzz = V::add(pzz, V::mul(fcz, V::set1(k.cz[q])));
      pxy = V::add(pxy, V::mul(fcx, V::set1(k.cy[q])));
      pxz = V::add(pxz, V::mul(fcx, V::set1(k.cz[q])));
      pyz = V::add(pyz, V::mul(fcy, V::set1(k.cz[q])));
    }
    const R pi_mag = V::sqrt(V::add(
        V::add(V::add(V::mul(pxx, pxx), V::mul(pyy, pyy)),
               V::mul(pzz, pzz)),
        V::mul(V::set1(T{2}),
               V::add(V::add(V::mul(pxy, pxy), V::mul(pxz, pxz)),
                      V::mul(pyz, pyz)))));
    // tau and the LES constant are per-call invariants; computing them
    // once in scalar yields the same values the per-point scalar code
    // recomputes.
    const T tau_s = T{1} / omega;
    const T les_c = T{18} * static_cast<T>(1.41421356237) * cs2;
    const R tau = V::set1(tau_s);
    const R tau_eff =
        V::div(V::add(tau, V::sqrt(V::add(
                               V::mul(tau, tau),
                               V::mul(V::mul(V::set1(les_c), pi_mag),
                                      inv_rho)))),
               V::set1(T{2}));
    omega_eff = V::div(V::set1(T{1}), tau_eff);
  }

  for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
    const R feq = feq_q(q);
    const R out = V::add(g[q], V::mul(omega_eff, V::sub(feq, g[q])));
    if (full) {
      if constexpr (AllowNt) {
        if (nt_ok[q]) {
          V::stream(dst[q] + i, out);
          continue;
        }
      }
      V::store(dst[q] + i, out);
    } else {
      V::store_n(dst[q] + i, out, active);
    }
  }
}

/// Drives tile_point_group over w consecutive points: full-width groups
/// plus at most one partial group. With AllowNt, full-width groups whose
/// destination stream is vector-aligned use streaming stores (group
/// offsets advance by whole vectors, so base alignment decides the whole
/// call).
template <typename V, bool WithLes, bool AllowNt>
void tile_run(const typename V::value_type* const* src,
              typename V::value_type* const* dst, index_t w,
              typename V::value_type omega,
              const std::array<typename V::value_type, 3>& force_shift,
              typename V::value_type cs2) {
  std::array<bool, kQ> nt_ok{};
  if constexpr (AllowNt) {
    for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
      nt_ok[q] = V::aligned(dst[q]);
    }
  }
  index_t i = 0;
  for (; i + V::kLanes <= w; i += V::kLanes) {
    tile_point_group<V, WithLes, AllowNt>(src, dst, i, V::kLanes, omega,
                                          force_shift, cs2, nt_ok);
  }
  if (i < w) {
    tile_point_group<V, WithLes, AllowNt>(src, dst, i, w - i, omega,
                                          force_shift, cs2, nt_ok);
  }
}

}  // namespace hemo::lbm::simd
