// Runtime-selected multi-backend SIMD dispatch for the segmented bulk
// kernels (both layouts).
//
// The portability layer has three parts:
//  * compile-time backend inventory — each explicit-intrinsic variant of
//    the bulk tile kernel lives in its own translation unit compiled with
//    exactly the ISA flags it needs (src/lbm/simd_*.cpp, wired up in
//    src/lbm/CMakeLists.txt under the HEMO_SIMD cache variable), so the
//    rest of the tree stays at the portable baseline architecture;
//  * CPUID runtime detection — detected_backends() intersects the
//    compiled-in set with what the running CPU reports, so a binary built
//    with AVX-512 kernels still runs (on the widest supported backend) on
//    a host without them;
//  * resolution — resolve_backend() turns a KernelConfig request into the
//    backend lbm::bind_sweep() actually binds: an explicit request
//    must be compiled in and CPU-supported (hard error otherwise, never a
//    silent fallback), kAuto picks the widest detected backend.
//
// Bit-identity contract: every backend performs the identical per-point
// IEEE-754 operation sequence of lbm/point_update.hpp — vector lanes are
// independent, no reassociation, no FMA contraction (all kernel TUs are
// compiled with the same -ffp-contract=off flag) — so switching backends
// or thread counts never changes a single bit of solver state. Enforced
// exhaustively by tests/test_simd_backends.cpp.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lbm/kernel_config.hpp"
#include "lbm/lattice.hpp"
#include "util/common.hpp"

namespace hemo::lbm::simd {

/// Signature of a bulk tile kernel: per-direction source/destination
/// pointers to the first of w consecutive bulk-interior points that share
/// their 19 neighbor offsets (the RLE span property), BGK omega and the
/// forcing velocity shift. Consecutive points' values of one direction
/// sit one element apart under SoA and kQ elements apart under AoS; the
/// tile's layout fixes which.
template <typename T>
using TileFn = void (*)(const T* const* src, T* const* dst, index_t w,
                        T omega, const std::array<T, 3>& force_shift);

/// Backends compiled into this binary, widest first. Always contains
/// Backend::kScalar.
[[nodiscard]] std::vector<Backend> compiled_backends();

/// True when the running CPU can execute backend `b` (CPUID on x86).
/// kScalar is always supported.
[[nodiscard]] bool cpu_supports(Backend b);

/// Compiled-in backends the running CPU supports, widest first.
[[nodiscard]] std::vector<Backend> detected_backends();

/// Parses a backend name ("auto", "scalar", "avx2", "avx512",
/// case-insensitive); nullopt for anything else.
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

/// Resolves a KernelConfig backend request to the backend to bind. An
/// explicit (non-kAuto) request must be compiled in and CPU-supported
/// (hard error otherwise — tests and benchmarks that pin a backend must
/// never be silently redirected); kAuto selects the widest detected
/// backend.
[[nodiscard]] Backend resolve_backend(Backend requested);

/// Tile kernel for (backend, layout, non-temporal stores). Returns
/// nullptr when the backend is not compiled into this binary. For SoA,
/// `nt_stores` selects a variant that uses streaming stores for
/// full-width aligned destination vectors (AB back-array only — callers
/// must issue store_fence() before any cross-thread hand-off of the
/// written data). AoS tiles scatter their stores, which have no streaming
/// form, so `nt_stores` does not apply to them.
template <typename T>
[[nodiscard]] TileFn<T> tile_kernel(Backend b, Layout layout,
                                    bool nt_stores);

/// Orders non-temporal stores issued by the calling thread ahead of its
/// later normal stores (x86 sfence). Required between an NT-store kernel
/// and the barrier/flag that publishes the data to other threads; no-op
/// for backends without streaming stores.
void store_fence(Backend b) noexcept;

/// Vector lanes backend `b` processes per operation for a value of
/// `bytes` (4 or 8). 1 for kScalar (the portable tile autovectorizes at
/// whatever width the baseline ISA offers, but its contract is lane-1).
[[nodiscard]] index_t lanes(Backend b, index_t bytes) noexcept;

}  // namespace hemo::lbm::simd
