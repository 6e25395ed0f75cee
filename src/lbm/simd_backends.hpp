// Internal registry of per-backend tile kernel entry points.
//
// Each getter is defined in its backend's translation unit (compiled with
// that backend's ISA flags); simd.cpp routes tile_kernel() through them.
// The HEMO_SIMD_HAVE_* macros are set for the whole hemo_lbm target by
// src/lbm/CMakeLists.txt (driven by the HEMO_SIMD cache variable), so this
// header, simd.cpp, and the backend TUs always agree on what exists.
#pragma once

#include "lbm/simd.hpp"

namespace hemo::lbm::simd::detail {

TileFn<float> scalar_tile_f32(Layout layout, bool nt_stores);
TileFn<double> scalar_tile_f64(Layout layout, bool nt_stores);

#ifdef HEMO_SIMD_HAVE_AVX2
TileFn<float> avx2_tile_f32(Layout layout, bool nt_stores);
TileFn<double> avx2_tile_f64(Layout layout, bool nt_stores);
#endif

#ifdef HEMO_SIMD_HAVE_AVX512
TileFn<float> avx512_tile_f32(Layout layout, bool nt_stores);
TileFn<double> avx512_tile_f64(Layout layout, bool nt_stores);
#endif

}  // namespace hemo::lbm::simd::detail
