// Bit-identity contract of the two solver hot paths.
//
// The segmented path (segment-reordered storage, branch-free RLE bulk
// kernels) must produce *bit-identical* distribution state to the fused
// reference path: both inline the single per-point arithmetic definition in
// lbm/point_update.hpp, and the reordering only changes which point is
// processed when — which cannot matter, because within a step no point
// reads a location another point writes (see the parallelization notes in
// solver.cpp). These tests assert that equivalence exhaustively across
// {AB, AA} x {AoS, SoA} x {float, double} and the physics toggles (LES,
// pulsatile inlets, periodic body-force flow), plus the structural
// invariants of the SegmentedMesh permutation itself.
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

/// Physics toggles layered on the base cylinder benchmark geometry.
enum class Variant { kPlain, kLes, kPulsatile, kPeriodic };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kLes: return "les";
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
    case Variant::kLes:
      s.params.smagorinsky_cs = 0.14;
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
  ASSERT_EQ(ref.segments(), nullptr);

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
        ::testing::Values(Variant::kPlain, Variant::kLes, Variant::kPulsatile,
                          Variant::kPeriodic),
        ::testing::Values(Layout::kAoS, Layout::kSoA),
        ::testing::Values(Propagation::kAB, Propagation::kAA)),
    [](const auto& info) {
      return std::string(variant_name(std::get<0>(info.param))) + "_" +
             to_string(std::get<2>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

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

TEST(SweepBinding, AosAndReferenceReportScalar) {
  const auto big = nt_threshold_points<double>().second;
  for (const Propagation prop : {Propagation::kAB, Propagation::kAA}) {
    const auto aos = bind_sweep<double>(
        binding_params(Layout::kAoS, prop, widest_backend()), big);
    EXPECT_EQ(aos.backend, Backend::kScalar);
    EXPECT_EQ(aos.tile, nullptr);
    EXPECT_FALSE(aos.nt_stores);
    EXPECT_NE(aos.bulk[0], nullptr);
    EXPECT_NE(aos.boundary[1], nullptr);

    for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
      auto params = binding_params(layout, prop, widest_backend());
      params.kernel.path = KernelPath::kReference;
      const auto ref = bind_sweep<double>(params, big);
      EXPECT_EQ(ref.backend, Backend::kScalar);
      EXPECT_EQ(ref.tile, nullptr);
      EXPECT_FALSE(ref.nt_stores);
      EXPECT_EQ(ref.bulk[0], nullptr);
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
  EXPECT_EQ(small.tile, simd::tile_kernel<T>(widest, false, false));
  // A vector backend streams past the threshold; scalar never does.
  const bool vector = widest != Backend::kScalar;
  EXPECT_EQ(large.nt_stores, vector) << to_string(widest);
  EXPECT_EQ(large.tile, simd::tile_kernel<T>(widest, false, vector));
  // AB runs one kernel pair for both parities.
  EXPECT_EQ(large.bulk[0], large.bulk[1]);
  EXPECT_EQ(large.boundary[0], large.boundary[1]);
}

TEST(SweepBinding, AbSoaStreamsExactlyPastSixtyFourMiB) {
  expect_ab_soa_streams_past_threshold<double>();
  expect_ab_soa_streams_past_threshold<float>();
}

TEST(SweepBinding, SmagorinskyBindsTheLesTile) {
  const Backend widest = widest_backend();
  for (const Propagation prop : {Propagation::kAB, Propagation::kAA}) {
    auto params = binding_params(Layout::kSoA, prop, widest);
    const auto plain = bind_sweep<double>(params, 1000);
    params.smagorinsky_cs = 0.14;
    const auto les = bind_sweep<double>(params, 1000);
    EXPECT_EQ(plain.tile, simd::tile_kernel<double>(widest, false, false));
    EXPECT_EQ(les.tile, simd::tile_kernel<double>(widest, true, false));
    EXPECT_NE(les.bulk[0], plain.bulk[0]);
    EXPECT_EQ(les.boundary[0], plain.boundary[0]);
    EXPECT_EQ(les.cs2, 0.14 * 0.14);
  }
}

}  // namespace
}  // namespace hemo::lbm
