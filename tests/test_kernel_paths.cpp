// Bit-identity contract of the two kernel paths.
//
// Both paths are bindings of the one segmented sweep (lbm::bind_sweep):
// the segmented binding streams the bulk segment through the branch-free
// RLE span kernels, the reference binding sweeps every point through the
// general neighbor-table gather + type-switch kernels. They must produce
// *bit-identical* distribution state: both inline the single per-point
// arithmetic definition in lbm/point_update.hpp, and within a step no
// point reads a location another point writes (see the parallelization
// notes in solver.cpp). These tests assert that equivalence exhaustively
// across {AB, AA} x {AoS, SoA} x {float, double} and the physics toggles
// (plain, pulsatile inlets, periodic body-force flow), plus the structural
// invariants of the SegmentedMesh permutation itself. Both paths index
// through the permuted neighbor table, so a wrong remap can leave them in
// agreement: PermutedNeighborTableMatchesOriginal checks the table
// against the original mesh. Code-with-code comparisons cannot catch an
// edit that moves both sides at once, so KernelStatePin pins the
// segmented state by hash against a known-good build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "geometry/generators.hpp"
#include "lbm/io.hpp"
#include "lbm/mesh.hpp"
#include "lbm/mesh_segments.hpp"
#include "lbm/simd.hpp"
#include "lbm/solver.hpp"

namespace hemo::lbm {
namespace {

/// Physics toggles layered on the base cylinder benchmark geometry. The
/// values are fixed: gtest prints a parameter's bytes into the test name,
/// so renumbering the enum would rename every case of the suite.
enum class Variant { kPlain = 0, kPulsatile = 2, kPeriodic = 3 };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kPulsatile: return "pulsatile";
    case Variant::kPeriodic: return "periodic";
  }
  return "?";
}

struct Scenario {
  geometry::Geometry geo;
  MeshOptions mesh_options;
  SolverParams params;
};

Scenario make_scenario(Variant v, Layout layout, Propagation prop) {
  const bool periodic = v == Variant::kPeriodic;
  Scenario s{periodic
                 ? geometry::make_periodic_cylinder({.radius = 5, .length = 24})
                 : geometry::make_cylinder({.radius = 5, .length = 24}),
             MeshOptions{}, SolverParams{}};
  s.params.kernel.layout = layout;
  s.params.kernel.propagation = prop;
  switch (v) {
    case Variant::kPlain:
      break;
    case Variant::kPulsatile:
      for (auto& inlet : s.geo.inlets) {
        inlet.pulse_amplitude = 0.4;
        inlet.pulse_period = 10.0;
      }
      break;
    case Variant::kPeriodic:
      s.mesh_options.periodic_z = true;
      s.params.body_force = {0.0, 0.0, 1e-5};
      break;
  }
  return s;
}

/// Runs both paths `steps` timesteps and asserts bit-identical canonical
/// state at every checked instant (including an odd AA parity point).
template <typename T>
void expect_paths_bit_identical(Variant v, Layout layout, Propagation prop) {
  Scenario s = make_scenario(v, layout, prop);
  const FluidMesh mesh = FluidMesh::build(s.geo.grid, s.mesh_options);

  SolverParams ref_params = s.params;
  ref_params.kernel.path = KernelPath::kReference;
  SolverParams seg_params = s.params;
  seg_params.kernel.path = KernelPath::kSegmented;

  Solver<T> ref(mesh, ref_params, std::span(s.geo.inlets));
  Solver<T> seg(mesh, seg_params, std::span(s.geo.inlets));
  ASSERT_NE(seg.segments(), nullptr);
  ASSERT_NE(ref.segments(), nullptr);

  // Check at an odd step count (AA mid-parity, pulse mid-cycle) and again
  // at an even one.
  for (index_t steps : {index_t{5}, index_t{4}}) {
    ref.run(steps);
    seg.run(steps);
    const std::vector<T> a = ref.export_state();
    const std::vector<T> b = seg.export_state();
    ASSERT_EQ(a.size(), b.size());
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      // Bit comparison, not EXPECT_EQ: distinguishes -0.0 / NaN patterns.
      if (std::memcmp(&a[k], &b[k], sizeof(T)) != 0) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u)
        << variant_name(v) << " " << kernel_name(ref_params.kernel)
        << " diverged at t=" << ref.timestep();
  }
}

class KernelPathBitIdentity
    : public ::testing::TestWithParam<
          std::tuple<Variant, Layout, Propagation>> {};

TEST_P(KernelPathBitIdentity, DoubleState) {
  const auto [v, layout, prop] = GetParam();
  expect_paths_bit_identical<double>(v, layout, prop);
}

TEST_P(KernelPathBitIdentity, FloatState) {
  const auto [v, layout, prop] = GetParam();
  expect_paths_bit_identical<float>(v, layout, prop);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, KernelPathBitIdentity,
    ::testing::Combine(
        ::testing::Values(Variant::kPlain, Variant::kPulsatile,
                          Variant::kPeriodic),
        ::testing::Values(Layout::kAoS, Layout::kSoA),
        ::testing::Values(Propagation::kAB, Propagation::kAA)),
    [](const auto& info) {
      return std::string(variant_name(std::get<0>(info.param))) + "_" +
             to_string(std::get<2>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

// ---- Absolute state pins ----------------------------------------------
//
// The identity suites compare code with code (paths, backends, ranks): an
// edit to the shared per-point arithmetic would move every side at once
// and pass them all. These pins compare the segmented path's canonical
// state with FNV-1a 64 hashes recorded from a known-good build, so any
// change to the arithmetic of the bulk or boundary update shows. The
// pulsatile variant is left out: its inlet calls std::sin, whose last bit
// may depend on the libm.

/// FNV-1a 64 over the bytes of `state`.
template <typename T>
std::uint64_t state_hash(const std::vector<T>& state) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(state.data());
  for (std::size_t k = 0; k < state.size() * sizeof(T); ++k) {
    h ^= bytes[k];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Expected export_state() hashes of one kernel configuration after 10
/// and after 11 steps.
struct StatePin {
  Propagation prop;
  Layout layout;
  bool dbl;
  std::uint64_t after10;
  std::uint64_t after11;
};

template <typename T>
void expect_state_pin(Variant v, const StatePin& pin) {
  Scenario s = make_scenario(v, pin.layout, pin.prop);
  const FluidMesh mesh = FluidMesh::build(s.geo.grid, s.mesh_options);
  Solver<T> solver(mesh, s.params, std::span(s.geo.inlets));
  solver.run(10);
  const std::uint64_t after10 = state_hash(solver.export_state());
  EXPECT_EQ(after10, pin.after10) << std::hex << after10;
  solver.run(1);
  const std::uint64_t after11 = state_hash(solver.export_state());
  EXPECT_EQ(after11, pin.after11) << std::hex << after11;
}

void expect_state_pins(Variant v, const std::vector<StatePin>& pins) {
  for (const StatePin& pin : pins) {
    SCOPED_TRACE(std::string(variant_name(v)) + " " + to_string(pin.prop) +
                 " " + to_string(pin.layout) +
                 (pin.dbl ? " double" : " float"));
    if (pin.dbl) {
      expect_state_pin<double>(v, pin);
    } else {
      expect_state_pin<float>(v, pin);
    }
  }
}

constexpr Propagation kAB = Propagation::kAB;
constexpr Propagation kAA = Propagation::kAA;
constexpr Layout kAoS = Layout::kAoS;
constexpr Layout kSoA = Layout::kSoA;

TEST(KernelStatePin, PlainCylinder) {
  expect_state_pins(Variant::kPlain, {
      {kAB, kAoS, true,
       0x9f71db197eace7a1ULL, 0xac465a40e3e40f71ULL},
      {kAB, kSoA, true,
       0xdcee932e983ba131ULL, 0xe83b3e987dd326b5ULL},
      {kAA, kAoS, true,
       0x599cf9e67fce6bc1ULL, 0xc4886f9bbc4f7a55ULL},
      {kAA, kSoA, true,
       0x6ce35ca1049fbcc9ULL, 0xf1c7b4aa750ef025ULL},
      {kAB, kAoS, false,
       0xab62b88b3243ef55ULL, 0xb4ed71b5edd1f816ULL},
      {kAB, kSoA, false,
       0x7432642df8d460f5ULL, 0x5b8800cb46f76252ULL},
      {kAA, kAoS, false,
       0xcee7cbe64f10085dULL, 0xb9fd336c210789eeULL},
      {kAA, kSoA, false,
       0x2c14e8947740ad11ULL, 0xd8f7bc93a8a78d6eULL},
  });
}

TEST(KernelStatePin, PeriodicBodyForceCylinder) {
  expect_state_pins(Variant::kPeriodic, {
      {kAB, kAoS, true,
       0x4c782a3aced52b95ULL, 0x934946e07a427795ULL},
      {kAB, kSoA, true,
       0x0dbebefb672ad605ULL, 0x0b04f76e79258695ULL},
      {kAA, kAoS, true,
       0xa4a47df947a6e5d5ULL, 0xda72f182dbbae755ULL},
      {kAA, kSoA, true,
       0x8de961ac8183e7c5ULL, 0xe68cfdd6e50d1055ULL},
      {kAB, kAoS, false,
       0x76bd950f67041375ULL, 0xad3bfb5d5e4c1c65ULL},
      {kAB, kSoA, false,
       0xff7a7d3a5e79c1b5ULL, 0xb5baa03ce7b07fd5ULL},
      {kAA, kAoS, false,
       0x8c83deccda9f6ab5ULL, 0xfed7e7ef780bd005ULL},
      {kAA, kSoA, false,
       0x4492488cc2a32365ULL, 0x0819f642becf1b55ULL},
  });
}

TEST(KernelPaths, ObservablesAgreeAcrossPaths) {
  // Derived quantities go through the index translation layer; they must
  // match exactly, not approximately.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 20});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams ref_params, seg_params;
  ref_params.kernel.path = KernelPath::kReference;
  seg_params.kernel.path = KernelPath::kSegmented;
  Solver<double> ref(mesh, ref_params, std::span(geo.inlets));
  Solver<double> seg(mesh, seg_params, std::span(geo.inlets));
  ref.run(10);
  seg.run(10);
  for (index_t p = 0; p < mesh.num_points(); p += 11) {
    const auto ma = ref.moments_at(p);
    const auto mb = seg.moments_at(p);
    EXPECT_EQ(ma.rho, mb.rho) << "p=" << p;
    EXPECT_EQ(ma.ux, mb.ux) << "p=" << p;
    EXPECT_EQ(ma.uy, mb.uy) << "p=" << p;
    EXPECT_EQ(ma.uz, mb.uz) << "p=" << p;
    for (index_t q = 0; q < kQ; ++q) {
      EXPECT_EQ(ref.f_value(p, q), seg.f_value(p, q))
          << "p=" << p << " q=" << q;
    }
  }
  EXPECT_EQ(ref.mean_speed(), seg.mean_speed());
}

TEST(KernelPaths, StateTransfersAcrossPathsBitExactly) {
  // export_state() is canonical (original point order): a state exported
  // from one path restores into the other and the trajectories stay
  // bit-identical afterwards.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 20});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams ref_params, seg_params;
  ref_params.kernel.path = KernelPath::kReference;
  seg_params.kernel.path = KernelPath::kSegmented;
  Solver<double> ref(mesh, ref_params, std::span(geo.inlets));
  Solver<double> seg(mesh, seg_params, std::span(geo.inlets));

  ref.run(9);
  const auto state = ref.export_state();
  seg.restore_state(state, ref.timestep());
  EXPECT_EQ(seg.export_state(), state);  // round trip through the permutation

  ref.run(6);
  seg.run(6);
  EXPECT_EQ(ref.export_state(), seg.export_state());
}

TEST(KernelPaths, CheckpointsAreCrossPathCompatible) {
  // The binary checkpoint stores canonical state: a file written by the
  // reference path loads into a segmented solver (and vice versa).
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams ref_params, seg_params;
  ref_params.kernel.path = KernelPath::kReference;
  seg_params.kernel.path = KernelPath::kSegmented;
  Solver<double> ref(mesh, ref_params, std::span(geo.inlets));
  Solver<double> seg(mesh, seg_params, std::span(geo.inlets));
  ref.run(8);
  std::stringstream buf;
  save_checkpoint(ref, buf);
  load_checkpoint(seg, buf);
  EXPECT_EQ(seg.timestep(), ref.timestep());
  EXPECT_EQ(seg.export_state(), ref.export_state());
}

TEST(SegmentedMeshTest, PermutationIsAStableBijection) {
  const auto geo = geometry::make_cylinder({.radius = 6, .length = 30});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  const SegmentedMesh seg = SegmentedMesh::build(mesh);
  const index_t n = mesh.num_points();
  ASSERT_EQ(seg.num_points(), n);

  std::vector<bool> hit(static_cast<std::size_t>(n), false);
  for (index_t i = 0; i < n; ++i) {
    const index_t p = seg.point_at(i);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, n);
    EXPECT_FALSE(hit[static_cast<std::size_t>(p)]) << "duplicate point " << p;
    hit[static_cast<std::size_t>(p)] = true;
    EXPECT_EQ(seg.position_of(p), i);
    EXPECT_EQ(seg.type(i), mesh.type(p));
  }

  // Stability: original order preserved within each segment, and the bulk
  // segment is exactly the bulk-interior class.
  for (index_t i = 1; i < seg.bulk_count(); ++i) {
    EXPECT_LT(seg.point_at(i - 1), seg.point_at(i));
  }
  for (index_t i = seg.bulk_count() + 1; i < n; ++i) {
    EXPECT_LT(seg.point_at(i - 1), seg.point_at(i));
  }
  for (index_t i = 0; i < n; ++i) {
    const index_t p = seg.point_at(i);
    const bool fast = mesh.type(p) == PointType::kBulk &&
                      mesh.solid_links(p) == 0;
    EXPECT_EQ(i < seg.bulk_count(), fast);
  }

  const auto& c = seg.counts();
  EXPECT_EQ(c.bulk_interior, seg.bulk_count());
  EXPECT_EQ(c.bulk_interior + c.bulk_edge + c.wall + c.inlet + c.outlet, n);
  EXPECT_GT(c.bulk_interior, n / 2);  // cylinder is bulk-dominated
}

TEST(SegmentedMeshTest, SpansTileTheBulkSegmentWithExactOffsets) {
  const auto geo = geometry::make_cylinder({.radius = 6, .length = 30});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  const SegmentedMesh seg = SegmentedMesh::build(mesh);

  index_t covered = 0;
  for (const SegmentSpan& span : seg.spans()) {
    EXPECT_EQ(span.begin, covered);  // contiguous, ordered, gap-free
    ASSERT_GT(span.length, 0);
    for (index_t i = span.begin; i < span.begin + span.length; ++i) {
      const index_t p = seg.point_at(i);
      for (index_t q = 0; q < kQ; ++q) {
        const std::int32_t nb = mesh.neighbor(p, q);
        ASSERT_NE(nb, kSolidLink);  // bulk-interior: all links fluid
        EXPECT_EQ(seg.position_of(nb),
                  i + static_cast<index_t>(
                          span.offsets[static_cast<std::size_t>(q)]))
            << "i=" << i << " q=" << q;
      }
    }
    covered += span.length;
  }
  EXPECT_EQ(covered, seg.bulk_count());
  EXPECT_GT(seg.mean_span_length(), 1.0);  // rows actually coalesce
  EXPECT_GE(seg.max_span_length(), static_cast<index_t>(
                                       seg.mean_span_length()));
}

TEST(SegmentedMeshTest, PermutedNeighborTableMatchesOriginal) {
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  const SegmentedMesh seg = SegmentedMesh::build(mesh);
  for (index_t i = 0; i < seg.num_points(); ++i) {
    const index_t p = seg.point_at(i);
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = mesh.neighbor(p, q);
      if (nb == kSolidLink) {
        EXPECT_EQ(seg.neighbor(i, q), kSolidLink);
      } else {
        EXPECT_EQ(seg.neighbor(i, q),
                  static_cast<std::int32_t>(seg.position_of(nb)));
      }
    }
  }
}

TEST(SolverReductions, MassAndSpeedMatchSerialAccumulation) {
  // The fixed-block ordered reductions must equal a plain serial
  // accumulation in the same block structure regardless of thread count;
  // here we pin the weaker, thread-count-free property that the block sum
  // equals itself computed independently.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 20});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams params;
  Solver<double> solver(mesh, params, std::span(geo.inlets));
  solver.run(6);

  const real_t mass = solver.total_mass();
  EXPECT_EQ(mass, solver.total_mass());  // deterministic across calls
  real_t approx = 0.0;
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    approx += solver.moments_at(p).rho;
  }
  EXPECT_NEAR(mass, approx, std::abs(approx) * 1e-12);

  const real_t speed = solver.mean_speed();
  EXPECT_EQ(speed, solver.mean_speed());
  EXPECT_GT(speed, 0.0);
}

// ---- The kernel binder's choice table ---------------------------------

SolverParams binding_params(Layout layout, Propagation prop,
                            Backend backend) {
  SolverParams params;
  params.kernel.layout = layout;
  params.kernel.propagation = prop;
  params.kernel.backend = backend;
  return params;
}

/// The widest backend this host compiled and detects.
Backend widest_backend() { return simd::detected_backends().front(); }

/// Point counts just at and just past the streaming-store threshold: two
/// arrays of kQ values of T exceeding 64 MiB.
template <typename T>
std::pair<index_t, index_t> nt_threshold_points() {
  constexpr std::size_t kLimit = std::size_t{64} << 20;
  const auto at = static_cast<index_t>(kLimit / (kQ * sizeof(T) * 2));
  return {at, at + 1};
}

TEST(SweepBinding, AaNeverBindsStreamingStores) {
  const auto [below, above] = nt_threshold_points<double>();
  for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
    for (const index_t n : {below, above, above * 4}) {
      const auto b = bind_sweep<double>(
          binding_params(layout, Propagation::kAA, widest_backend()), n);
      EXPECT_FALSE(b.nt_stores) << to_string(layout) << " n=" << n;
    }
  }
  const auto f = bind_sweep<float>(
      binding_params(Layout::kSoA, Propagation::kAA, widest_backend()),
      nt_threshold_points<float>().second);
  EXPECT_FALSE(f.nt_stores);
}

TEST(SweepBinding, SegmentedAosBindsTileAndReferenceReportsScalar) {
  const Backend widest = widest_backend();
  const auto big = nt_threshold_points<double>().second;
  for (const Propagation prop : {Propagation::kAB, Propagation::kAA}) {
    // Segmented AoS runs the resolved backend's strided tile, never with
    // streaming stores (a scatter has no streaming form), even past the
    // threshold at which AB SoA streams.
    const auto aos = bind_sweep<double>(
        binding_params(Layout::kAoS, prop, widest), big);
    EXPECT_EQ(aos.backend, widest);
    EXPECT_NE(aos.tile, nullptr);
    EXPECT_EQ(aos.tile, simd::tile_kernel<double>(widest, Layout::kAoS,
                                                  /*nt_stores=*/false));
    EXPECT_FALSE(aos.nt_stores);
    EXPECT_NE(aos.bulk[0], nullptr);
    EXPECT_NE(aos.boundary[1], nullptr);

    for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
      auto params = binding_params(layout, prop, widest);
      params.kernel.path = KernelPath::kReference;
      const auto ref = bind_sweep<double>(params, big);
      EXPECT_EQ(ref.backend, Backend::kScalar);
      EXPECT_EQ(ref.tile, nullptr);
      EXPECT_FALSE(ref.nt_stores);
      // The general gather kernels sweep both segments, for both parities.
      for (std::size_t parity : {0u, 1u}) {
        EXPECT_NE(ref.bulk[parity], nullptr);
        EXPECT_EQ(ref.bulk[parity], ref.boundary[parity]);
      }
    }
  }
}

template <typename T>
void expect_ab_soa_streams_past_threshold() {
  const Backend widest = widest_backend();
  const auto params = binding_params(Layout::kSoA, Propagation::kAB, widest);
  const auto [below, above] = nt_threshold_points<T>();
  const auto small = bind_sweep<T>(params, below);
  const auto large = bind_sweep<T>(params, above);
  EXPECT_EQ(small.backend, widest);
  EXPECT_FALSE(small.nt_stores);
  EXPECT_EQ(small.tile, simd::tile_kernel<T>(widest, Layout::kSoA, false));
  // A vector backend streams past the threshold; scalar never does.
  const bool vector = widest != Backend::kScalar;
  EXPECT_EQ(large.nt_stores, vector) << to_string(widest);
  EXPECT_EQ(large.tile, simd::tile_kernel<T>(widest, Layout::kSoA, vector));
  // AB runs one kernel pair for both parities.
  EXPECT_EQ(large.bulk[0], large.bulk[1]);
  EXPECT_EQ(large.boundary[0], large.boundary[1]);
}

TEST(SweepBinding, AbSoaStreamsExactlyPastSixtyFourMiB) {
  expect_ab_soa_streams_past_threshold<double>();
  expect_ab_soa_streams_past_threshold<float>();
}

}  // namespace
}  // namespace hemo::lbm
