// Scalar (portable) backend: the autovectorized interleaved tile, the
// baseline every SIMD backend must match bit-for-bit, for both layouts.
#include <algorithm>

#include "lbm/simd_backends.hpp"

namespace hemo::lbm::simd {

namespace {

/// Tile width of the interleaved scalar micro-kernel: long enough to
/// amortize the per-tile moment temporaries across SIMD lanes the
/// autovectorizer finds, small enough that the working set (19 direction
/// rows + moments) stays in L1.
constexpr index_t kTileWidth = 32;

/// Interleaved bulk update over w <= kTileWidth consecutive points whose
/// values of one direction sit Stride elements apart (1: SoA, kQ: AoS).
/// The arithmetic is the exact per-point sequence of
/// update_interior_values (moments accumulated in direction order, the
/// same velocity-shift expressions, equilibria in direction order), only
/// interleaved across the tile's points — every individual point sees
/// identical IEEE operations, so the result is bit-identical to the
/// per-point loop while the inner i-loops vectorize.
///
/// Arrivals are buffered in gt before any store: for the in-place AA
/// steps every location is read and written by the same point, so
/// draining all tile reads first cannot observe another point's write.
template <typename T, index_t Stride>
void interleaved_tile(const T* const* src, T* const* dst, index_t w,
                      T omega, const std::array<T, 3>& force_shift) {
  T gt[kQ][kTileWidth];
  T rho[kTileWidth], jx[kTileWidth], jy[kTileWidth], jz[kTileWidth];
  for (index_t i = 0; i < w; ++i) {
    rho[i] = T{0};
    jx[i] = T{0};
    jy[i] = T{0};
    jz[i] = T{0};
  }
  for (index_t q = 0; q < kQ; ++q) {
    const T* s = src[q];
    T* g = gt[q];
    const auto& c = kD3Q19[static_cast<std::size_t>(q)];
    const T cx = static_cast<T>(c.dx), cy = static_cast<T>(c.dy),
            cz = static_cast<T>(c.dz);
    for (index_t i = 0; i < w; ++i) {
      const T fq = s[i * Stride];
      g[i] = fq;
      rho[i] += fq;
      jx[i] += fq * cx;
      jy[i] += fq * cy;
      jz[i] += fq * cz;
    }
  }
  T fx[kTileWidth], fy[kTileWidth], fz[kTileWidth];
  for (index_t i = 0; i < w; ++i) {
    const T inv_rho = T{1} / rho[i];
    const T ux = jx[i] * inv_rho, uy = jy[i] * inv_rho,
            uz = jz[i] * inv_rho;
    fx[i] = ux + force_shift[0] * inv_rho;
    fy[i] = uy + force_shift[1] * inv_rho;
    fz[i] = uz + force_shift[2] * inv_rho;
  }
  for (index_t q = 0; q < kQ; ++q) {
    const T* g = gt[q];
    T* d = dst[q];
    for (index_t i = 0; i < w; ++i) {
      const T feq = equilibrium<T>(q, rho[i], fx[i], fy[i], fz[i]);
      d[i * Stride] = bgk_collide(g[i], feq, omega);
    }
  }
}

/// TileFn adapter: walks an arbitrary-length span chunk in kTileWidth
/// pieces.
template <typename T, index_t Stride>
void scalar_tile(const T* const* src, T* const* dst, index_t w, T omega,
                 const std::array<T, 3>& force_shift) {
  const T* s[kQ];
  T* d[kQ];
  for (index_t t0 = 0; t0 < w; t0 += kTileWidth) {
    const index_t tw = std::min(kTileWidth, w - t0);
    for (index_t q = 0; q < kQ; ++q) {
      const auto sq = static_cast<std::size_t>(q);
      s[sq] = src[sq] + t0 * Stride;
      d[sq] = dst[sq] + t0 * Stride;
    }
    interleaved_tile<T, Stride>(s, d, tw, omega, force_shift);
  }
}

}  // namespace

namespace detail {

// No streaming stores without intrinsics: nt_stores is ignored.

TileFn<float> scalar_tile_f32(Layout layout, bool /*nt_stores*/) {
  return layout == Layout::kAoS ? &scalar_tile<float, kQ>
                                : &scalar_tile<float, 1>;
}

TileFn<double> scalar_tile_f64(Layout layout, bool /*nt_stores*/) {
  return layout == Layout::kAoS ? &scalar_tile<double, kQ>
                                : &scalar_tile<double, 1>;
}

}  // namespace detail

}  // namespace hemo::lbm::simd
