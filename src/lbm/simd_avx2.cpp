// AVX2 backend (256-bit x86 vectors, masked tails). This TU is compiled
// with -mavx2 (no -mfma: FMA contraction would change rounding versus the
// scalar baseline) — see src/lbm/CMakeLists.txt.
#include "lbm/simd_backends.hpp"
#include "lbm/simd_tile.hpp"

#ifdef HEMO_SIMD_HAVE_AVX2

namespace hemo::lbm::simd::detail {

TileFn<float> avx2_tile_f32(Layout layout, bool nt_stores) {
  return strided_tile<Avx2VecF>(layout, nt_stores);
}

TileFn<double> avx2_tile_f64(Layout layout, bool nt_stores) {
  return strided_tile<Avx2VecD>(layout, nt_stores);
}

}  // namespace hemo::lbm::simd::detail

#endif  // HEMO_SIMD_HAVE_AVX2
