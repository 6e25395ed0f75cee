// Bit-identity and dispatch contract of the multi-backend SIMD layer.
//
// Every compiled-in, CPU-supported backend must produce *bit-identical*
// solver state to the scalar backend at one thread, for every kernel
// variant and physics toggle: the vector kernels execute the identical
// per-point IEEE-754 operation sequence (lbm/simd_tile.hpp), thread
// partitions only change which thread processes which point, and within a
// step no point reads a location another point writes. These tests assert
// that exhaustively — backends x threads {1, 2, 8} x {AB, AA} x
// {AoS, SoA} x {float, double} x {plain, LES, pulsatile} — plus the
// resolution rules (explicit > HEMO_SIMD env > widest detected),
// checkpoint portability across backends, and streaming-store tiles equal
// to plain-store tiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "geometry/generators.hpp"
#include "lbm/mesh.hpp"
#include "lbm/simd.hpp"
#include "lbm/solver.hpp"

namespace hemo::lbm {
namespace {

TEST(SimdDispatch, CompiledBackendsAlwaysContainScalar) {
  const auto compiled = simd::compiled_backends();
  ASSERT_FALSE(compiled.empty());
  EXPECT_NE(std::find(compiled.begin(), compiled.end(), Backend::kScalar),
            compiled.end());
  // Widest-first order ends at the scalar fallback.
  EXPECT_EQ(compiled.back(), Backend::kScalar);
}

TEST(SimdDispatch, DetectedIsSubsetOfCompiledAndCpuSupported) {
  const auto compiled = simd::compiled_backends();
  for (const Backend b : simd::detected_backends()) {
    EXPECT_NE(std::find(compiled.begin(), compiled.end(), b), compiled.end())
        << to_string(b);
    EXPECT_TRUE(simd::cpu_supports(b)) << to_string(b);
  }
}

TEST(SimdDispatch, ParseRoundTripsEveryName) {
  for (const Backend b :
       {Backend::kAuto, Backend::kScalar, Backend::kAVX2, Backend::kAVX512}) {
    const auto parsed = simd::parse_backend(to_string(b));
    ASSERT_TRUE(parsed.has_value()) << to_string(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_EQ(simd::parse_backend("AVX2"), Backend::kAVX2);  // case-blind
  EXPECT_FALSE(simd::parse_backend("avx9000").has_value());
  EXPECT_FALSE(simd::parse_backend("sse2").has_value());  // deleted backends
  EXPECT_FALSE(simd::parse_backend("neon").has_value());
  EXPECT_FALSE(simd::parse_backend("").has_value());
}

TEST(SimdDispatch, ResolutionPrecedence) {
  // Explicit request wins (scalar is always available).
  EXPECT_EQ(simd::resolve_backend(Backend::kScalar), Backend::kScalar);
  // kAuto with the environment variable set follows the environment.
  ::setenv("HEMO_SIMD", "scalar", 1);
  EXPECT_EQ(simd::resolve_backend(Backend::kAuto), Backend::kScalar);
  ::setenv("HEMO_SIMD", "bogus", 1);
  EXPECT_THROW((void)simd::resolve_backend(Backend::kAuto), PreconditionError);
  ::unsetenv("HEMO_SIMD");
  // kAuto without the environment variable takes the widest detected
  // backend (never silently something unsupported).
  const auto detected = simd::detected_backends();
  EXPECT_EQ(simd::resolve_backend(Backend::kAuto), detected.front());
}

TEST(SimdDispatch, TileKernelExistsForEveryCompiledBackend) {
  for (const Backend b : simd::compiled_backends()) {
    for (const bool les : {false, true}) {
      for (const bool nt : {false, true}) {
        EXPECT_NE(simd::tile_kernel<float>(b, les, nt), nullptr)
            << to_string(b);
        EXPECT_NE(simd::tile_kernel<double>(b, les, nt), nullptr)
            << to_string(b);
      }
    }
  }
}

TEST(SimdDispatch, LanesMatchVectorWidths) {
  EXPECT_EQ(simd::lanes(Backend::kScalar, 4), 1);
  EXPECT_EQ(simd::lanes(Backend::kScalar, 8), 1);
  EXPECT_EQ(simd::lanes(Backend::kAVX2, 8), 4);
  EXPECT_EQ(simd::lanes(Backend::kAVX512, 4), 16);
}

// ---- Solver-level bit identity ------------------------------------------

enum class Variant { kPlain, kLes, kPulsatile };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kLes: return "les";
    case Variant::kPulsatile: return "pulsatile";
  }
  return "?";
}

geometry::Geometry make_geometry(Variant v) {
  auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  if (v == Variant::kPulsatile) {
    for (auto& inlet : geo.inlets) {
      inlet.pulse_amplitude = 0.4;
      inlet.pulse_period = 10.0;
    }
  }
  return geo;
}

/// One shared mesh: the grid is identical for every variant (only inlet
/// parameters differ), and the solver never mutates it.
const FluidMesh& shared_mesh() {
  static const FluidMesh mesh =
      FluidMesh::build(make_geometry(Variant::kPlain).grid);
  return mesh;
}

SolverParams make_params(Variant v, Layout layout, Propagation prop,
                         Backend backend, index_t threads) {
  SolverParams params;
  params.kernel.layout = layout;
  params.kernel.propagation = prop;
  params.kernel.path = KernelPath::kSegmented;
  params.kernel.backend = backend;
  params.num_threads = threads;
  if (v == Variant::kLes) params.smagorinsky_cs = 0.14;
  return params;
}

/// Canonical state after `steps` (odd, AA mid-parity) plus 4 more (even).
template <typename T>
std::pair<std::vector<T>, std::vector<T>> run_states(
    Variant v, Layout layout, Propagation prop, Backend backend,
    index_t threads) {
  const auto geo = make_geometry(v);
  Solver<T> solver(shared_mesh(),
                   make_params(v, layout, prop, backend, threads),
                   std::span(geo.inlets));
  solver.run(5);
  std::vector<T> odd = solver.export_state();
  solver.run(4);
  return {std::move(odd), solver.export_state()};
}

/// Scalar one-thread baseline, computed once per variant tuple.
template <typename T>
const std::pair<std::vector<T>, std::vector<T>>& baseline(
    Variant v, Layout layout, Propagation prop) {
  using Key = std::tuple<Variant, Layout, Propagation>;
  static std::map<Key, std::pair<std::vector<T>, std::vector<T>>> cache;
  auto [it, fresh] = cache.try_emplace(Key{v, layout, prop});
  if (fresh) {
    it->second = run_states<T>(v, layout, prop, Backend::kScalar, 1);
  }
  return it->second;
}

template <typename T>
std::size_t count_bit_mismatches(const std::vector<T>& a,
                                 const std::vector<T>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    // Bit comparison, not ==: distinguishes -0.0 / NaN patterns.
    if (std::memcmp(&a[k], &b[k], sizeof(T)) != 0) ++mismatches;
  }
  return mismatches;
}

template <typename T>
void expect_matches_scalar(Variant v, Layout layout, Propagation prop,
                           Backend backend, index_t threads) {
  const auto& ref = baseline<T>(v, layout, prop);
  const auto got = run_states<T>(v, layout, prop, backend, threads);
  EXPECT_EQ(count_bit_mismatches(ref.first, got.first), 0u)
      << variant_name(v) << " " << to_string(prop) << " "
      << to_string(layout) << " " << to_string(backend) << " threads="
      << threads << " diverged at the odd checkpoint";
  EXPECT_EQ(count_bit_mismatches(ref.second, got.second), 0u)
      << variant_name(v) << " " << to_string(prop) << " "
      << to_string(layout) << " " << to_string(backend) << " threads="
      << threads << " diverged at the even checkpoint";
}

// ---- Tile-level streaming-store identity ---------------------------------

/// 19 direction streams of one tile call, each row vector-aligned on every
/// ISA (64 bytes), so the streaming-store variant takes its NT path.
template <typename T>
struct TileStreams {
  static constexpr index_t kWidth = 128;  ///< points per row
  struct alignas(64) Row {
    std::array<T, kWidth> v;
  };
  std::vector<Row> rows = std::vector<Row>(static_cast<std::size_t>(kQ));

  [[nodiscard]] std::array<T*, kQ> pointers() {
    std::array<T*, kQ> p{};
    for (std::size_t q = 0; q < p.size(); ++q) p[q] = rows[q].v.data();
    return p;
  }
};

/// Streaming stores change how destination lines are written, never what
/// is written: the NT variant of every tile must equal the plain-store
/// variant to the bit, write nothing past the call's width, and handle
/// masked (partial-vector) tails the same way.
template <typename T>
void expect_nt_matches_plain(Backend backend, bool les) {
  TileStreams<T> src;
  std::array<const T*, kQ> src_ptrs{};
  for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
    for (std::size_t i = 0; i < src.rows[q].v.size(); ++i) {
      // Near-equilibrium populations with a point-dependent wobble, so
      // every lane sees a different density and velocity.
      src.rows[q].v[i] = static_cast<T>(
          kWeights[q] * (1.0 + 0.02 * std::sin(0.37 * static_cast<double>(
                                                   i * 19 + q))));
    }
    src_ptrs[q] = src.rows[q].v.data();
  }
  const std::array<T, 3> force_shift{T(1e-4), T(-2e-5), T(0)};
  const T omega = T(1.3);
  const T cs2 = T(0.14 * 0.14);

  const index_t widths[] = {1,  2,  3,  7,  8,  9,   15,
                            16, 17, 31, 33, 64, 100, TileStreams<T>::kWidth};
  for (const index_t w : widths) {
    TileStreams<T> plain, nt;
    for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
      plain.rows[q].v.fill(T(-7));  // sentinel past the call's width
      nt.rows[q].v.fill(T(-7));
    }
    const std::array<T*, kQ> plain_dst = plain.pointers();
    const std::array<T*, kQ> nt_dst = nt.pointers();
    for (const T* p : nt_dst) {
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    }
    simd::tile_kernel<T>(backend, les, /*nt_stores=*/false)(
        src_ptrs.data(), plain_dst.data(), w, omega, force_shift, cs2);
    simd::tile_kernel<T>(backend, les, /*nt_stores=*/true)(
        src_ptrs.data(), nt_dst.data(), w, omega, force_shift, cs2);
    simd::store_fence(backend);
    for (std::size_t q = 0; q < static_cast<std::size_t>(kQ); ++q) {
      const auto& row = nt.rows[q].v;
      EXPECT_EQ(std::memcmp(plain.rows[q].v.data(), row.data(),
                            sizeof(row)),
                0)
          << to_string(backend) << (les ? " les" : " plain") << " w=" << w
          << " q=" << q;
      const auto last = static_cast<std::size_t>(w) - 1;
      EXPECT_NE(row[last], T(-7)) << "last point of the call not written";
      if (last + 1 < row.size()) {
        EXPECT_EQ(row[last + 1], T(-7)) << "wrote past the call's width";
      }
    }
  }
}

TEST(SimdTile, StreamingStoresMatchPlainStoresBitForBit) {
  for (const Backend b : simd::detected_backends()) {
    for (const bool les : {false, true}) {
      expect_nt_matches_plain<float>(b, les);
      expect_nt_matches_plain<double>(b, les);
    }
  }
}

class SimdBackendBitIdentity
    : public ::testing::TestWithParam<std::tuple<Backend, index_t>> {};

TEST_P(SimdBackendBitIdentity, MatchesScalarSingleThreadEverywhere) {
  const auto [backend, threads] = GetParam();
  if (!simd::cpu_supports(backend) ||
      simd::tile_kernel<float>(backend, false, false) == nullptr) {
    GTEST_SKIP() << to_string(backend) << " not available on this host";
  }
  for (const Variant v :
       {Variant::kPlain, Variant::kLes, Variant::kPulsatile}) {
    for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
      for (const Propagation prop : {Propagation::kAB, Propagation::kAA}) {
        expect_matches_scalar<float>(v, layout, prop, backend, threads);
        expect_matches_scalar<double>(v, layout, prop, backend, threads);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SimdBackendBitIdentity,
    ::testing::Combine(::testing::Values(Backend::kAVX2, Backend::kAVX512),
                       ::testing::Values(index_t{1}, index_t{2}, index_t{8})),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SimdBackends, EffectiveBackendIsScalarOffTheSegmentedSoaPath) {
  const auto geo = make_geometry(Variant::kPlain);
  // AoS: no unit-stride direction streams, so even the widest request
  // runs (and reports) scalar.
  SolverParams aos = make_params(Variant::kPlain, Layout::kAoS,
                                 Propagation::kAB, Backend::kAuto, 1);
  Solver<double> aos_solver(shared_mesh(), aos, std::span(geo.inlets));
  EXPECT_EQ(aos_solver.backend(), Backend::kScalar);
  // Reference path: same.
  SolverParams ref = make_params(Variant::kPlain, Layout::kSoA,
                                 Propagation::kAB, Backend::kAuto, 1);
  ref.kernel.path = KernelPath::kReference;
  Solver<double> ref_solver(shared_mesh(), ref, std::span(geo.inlets));
  EXPECT_EQ(ref_solver.backend(), Backend::kScalar);
  // Segmented SoA resolves the request for real.
  SolverParams soa = make_params(Variant::kPlain, Layout::kSoA,
                                 Propagation::kAB, Backend::kAuto, 1);
  Solver<double> soa_solver(shared_mesh(), soa, std::span(geo.inlets));
  EXPECT_EQ(soa_solver.backend(), simd::detected_backends().front());
  EXPECT_EQ(soa_solver.threads(), 1);
}

TEST(SimdBackends, CheckpointsArePortableAcrossBackends) {
  // A state exported under one backend must restore and continue under
  // any other backend to the bit — checkpoints carry no backend imprint.
  const auto geo = make_geometry(Variant::kPlain);
  for (const Propagation prop : {Propagation::kAB, Propagation::kAA}) {
    SolverParams scalar_params = make_params(
        Variant::kPlain, Layout::kSoA, prop, Backend::kScalar, 1);
    Solver<double> scalar(shared_mesh(), scalar_params,
                          std::span(geo.inlets));
    scalar.run(6);
    const std::vector<double> snapshot = scalar.export_state();
    scalar.run(4);
    const std::vector<double> expected = scalar.export_state();

    for (const Backend b : simd::detected_backends()) {
      SolverParams params =
          make_params(Variant::kPlain, Layout::kSoA, prop, b, 1);
      Solver<double> other(shared_mesh(), params, std::span(geo.inlets));
      other.restore_state(snapshot, 6);
      other.run(4);
      EXPECT_EQ(count_bit_mismatches(expected, other.export_state()), 0u)
          << to_string(prop) << " restored into " << to_string(b);
    }
  }
}

}  // namespace
}  // namespace hemo::lbm
