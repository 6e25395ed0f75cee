// Set-up determinism: the mesh neighbour table and the segmented views'
// row passes run under OpenMP, into rows the calling thread sized and left
// unwritten. Every table they fill must be the same at any team size, and
// the halo topology built from the views with it.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>

#include "decomp/partition.hpp"
#include "geometry/generators.hpp"
#include "harvey/halo.hpp"
#include "lbm/mesh.hpp"
#include "lbm/mesh_segments.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace hemo::lbm {
namespace {

/// Sets the default OpenMP team size for its lifetime.
class TeamSize {
 public:
  explicit TeamSize(int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    static_cast<void>(threads);
#endif
  }
  ~TeamSize() {
#ifdef _OPENMP
    omp_set_num_threads(saved_);
#endif
  }
  TeamSize(const TeamSize&) = delete;
  TeamSize& operator=(const TeamSize&) = delete;

 private:
#ifdef _OPENMP
  int saved_ = omp_get_max_threads();
#endif
};

/// Everything set-up builds for one team size.
struct Setup {
  FluidMesh mesh;
  SegmentedMesh whole;
  harvey::HaloExchange topo;
};

Setup build_setup(const geometry::Geometry& geo, const MeshOptions& options,
                  const decomp::Partition& partition, int threads) {
  const TeamSize team(threads);
  FluidMesh mesh = FluidMesh::build(geo.grid, options);
  SegmentedMesh whole = SegmentedMesh::build(mesh);
  harvey::HaloExchange topo = harvey::build_halo_exchange(mesh, partition);
  return Setup{std::move(mesh), std::move(whole), std::move(topo)};
}

void expect_same_mesh(const FluidMesh& a, const FluidMesh& b) {
  ASSERT_EQ(a.num_points(), b.num_points());
  for (index_t p = 0; p < a.num_points(); ++p) {
    ASSERT_EQ(a.solid_links(p), b.solid_links(p)) << "point " << p;
    for (index_t q = 0; q < kQ; ++q) {
      ASSERT_EQ(a.neighbor(p, q), b.neighbor(p, q))
          << "point " << p << " direction " << q;
    }
  }
}

void expect_same_view(const SegmentedMesh& a, const SegmentedMesh& b) {
  ASSERT_EQ(a.num_points(), b.num_points());
  ASSERT_EQ(a.num_slots(), b.num_slots());
  EXPECT_EQ(a.bulk_count(), b.bulk_count());
  EXPECT_EQ(a.frontier_begin(), b.frontier_begin());
  for (index_t s = 0; s < a.num_slots(); ++s) {
    ASSERT_EQ(a.point_at(s), b.point_at(s)) << "slot " << s;
  }
  for (index_t i = 0; i < a.num_points(); ++i) {
    ASSERT_EQ(a.type(i), b.type(i)) << "position " << i;
    for (index_t q = 0; q < kQ; ++q) {
      ASSERT_EQ(a.neighbor(i, q), b.neighbor(i, q))
          << "position " << i << " direction " << q;
    }
  }
  ASSERT_EQ(a.spans().size(), b.spans().size());
  for (std::size_t k = 0; k < a.spans().size(); ++k) {
    EXPECT_EQ(a.spans()[k].begin, b.spans()[k].begin) << "span " << k;
    EXPECT_EQ(a.spans()[k].length, b.spans()[k].length) << "span " << k;
    EXPECT_EQ(a.spans()[k].offsets, b.spans()[k].offsets) << "span " << k;
  }
  const SegmentCounts& ca = a.counts();
  const SegmentCounts& cb = b.counts();
  EXPECT_EQ(ca.bulk_interior, cb.bulk_interior);
  EXPECT_EQ(ca.bulk_edge, cb.bulk_edge);
  EXPECT_EQ(ca.wall, cb.wall);
  EXPECT_EQ(ca.inlet, cb.inlet);
  EXPECT_EQ(ca.outlet, cb.outlet);
}

/// Builds the mesh, the whole-mesh view and a 4-rank halo topology with
/// teams of 1 and 4 threads and checks that every table is equal.
void expect_team_invariant(const geometry::Geometry& geo,
                           const MeshOptions& options = {}) {
  const FluidMesh reference = FluidMesh::build(geo.grid, options);
  const decomp::Partition partition =
      decomp::make_partition(reference, 4, decomp::Strategy::kRcb);
  const Setup one = build_setup(geo, options, partition, 1);
  const Setup four = build_setup(geo, options, partition, 4);

  expect_same_mesh(one.mesh, four.mesh);
  {
    SCOPED_TRACE("whole-mesh view");
    expect_same_view(one.whole, four.whole);
    for (index_t p = 0; p < one.mesh.num_points(); ++p) {
      ASSERT_EQ(one.whole.position_of(p), four.whole.position_of(p))
          << "point " << p;
    }
  }
  ASSERT_EQ(one.topo.ranks.size(), four.topo.ranks.size());
  for (std::size_t r = 0; r < one.topo.ranks.size(); ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    expect_same_view(one.topo.ranks[r], four.topo.ranks[r]);
  }
  EXPECT_EQ(one.topo.owner_slot, four.topo.owner_slot);
  EXPECT_EQ(one.topo.n_ghosts, four.topo.n_ghosts);
  ASSERT_EQ(one.topo.channels.size(), four.topo.channels.size());
  for (std::size_t c = 0; c < one.topo.channels.size(); ++c) {
    SCOPED_TRACE("channel " + std::to_string(c));
    EXPECT_EQ(one.topo.channels[c].from, four.topo.channels[c].from);
    EXPECT_EQ(one.topo.channels[c].to, four.topo.channels[c].to);
    EXPECT_EQ(one.topo.channels[c].src_slots, four.topo.channels[c].src_slots);
    EXPECT_EQ(one.topo.channels[c].dst_slots, four.topo.channels[c].dst_slots);
  }
}

TEST(SetupDeterminism, CylinderTablesMatchAcrossTeamSizes) {
  expect_team_invariant(geometry::make_cylinder({.radius = 6, .length = 32}));
}

TEST(SetupDeterminism, AortaTablesMatchAcrossTeamSizes) {
  expect_team_invariant(geometry::make_aorta({}));
}

TEST(SetupDeterminism, PeriodicCylinderTablesMatchAcrossTeamSizes) {
  expect_team_invariant(
      geometry::make_periodic_cylinder({.radius = 6, .length = 32}),
      MeshOptions{.periodic_z = true});
}

}  // namespace
}  // namespace hemo::lbm
