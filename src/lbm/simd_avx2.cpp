// AVX2 backend (256-bit x86 vectors, masked tails). This TU is compiled
// with -mavx2 (no -mfma: FMA contraction would change rounding versus the
// scalar baseline) — see src/lbm/CMakeLists.txt.
#include "lbm/simd_backends.hpp"
#include "lbm/simd_tile.hpp"

#ifdef HEMO_SIMD_HAVE_AVX2

namespace hemo::lbm::simd::detail {

TileFn<float> avx2_tile_f32(bool nt_stores) {
  return nt_stores ? &tile_run<Avx2VecF, true>
                   : &tile_run<Avx2VecF, false>;
}

TileFn<double> avx2_tile_f64(bool nt_stores) {
  return nt_stores ? &tile_run<Avx2VecD, true>
                   : &tile_run<Avx2VecD, false>;
}

}  // namespace hemo::lbm::simd::detail

#endif  // HEMO_SIMD_HAVE_AVX2
