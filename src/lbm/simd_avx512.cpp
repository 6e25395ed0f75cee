// AVX-512 backend (512-bit x86 vectors, native masked tails — short RLE
// spans still run fully vectorized). This TU is compiled with -mavx512f
// (no FMA contraction) — see src/lbm/CMakeLists.txt.
#include "lbm/simd_backends.hpp"
#include "lbm/simd_tile.hpp"

#ifdef HEMO_SIMD_HAVE_AVX512

namespace hemo::lbm::simd::detail {

TileFn<float> avx512_tile_f32(Layout layout, bool nt_stores) {
  return strided_tile<Avx512VecF>(layout, nt_stores);
}

TileFn<double> avx512_tile_f64(Layout layout, bool nt_stores) {
  return strided_tile<Avx512VecD>(layout, nt_stores);
}

}  // namespace hemo::lbm::simd::detail

#endif  // HEMO_SIMD_HAVE_AVX512
