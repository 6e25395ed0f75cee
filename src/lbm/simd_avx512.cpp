// AVX-512 backend (512-bit x86 vectors, native masked tails — short RLE
// spans still run fully vectorized). This TU is compiled with -mavx512f
// (no FMA contraction) — see src/lbm/CMakeLists.txt.
#include "lbm/simd_backends.hpp"
#include "lbm/simd_tile.hpp"

#ifdef HEMO_SIMD_HAVE_AVX512

namespace hemo::lbm::simd::detail {

TileFn<float> avx512_tile_f32(bool nt_stores) {
  return nt_stores ? &tile_run<Avx512VecF, true>
                   : &tile_run<Avx512VecF, false>;
}

TileFn<double> avx512_tile_f64(bool nt_stores) {
  return nt_stores ? &tile_run<Avx512VecD, true>
                   : &tile_run<Avx512VecD, false>;
}

}  // namespace hemo::lbm::simd::detail

#endif  // HEMO_SIMD_HAVE_AVX512
