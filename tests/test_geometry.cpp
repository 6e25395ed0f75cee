// Unit tests for the voxel grid, wall classification, and the three vessel
// generators, including the geometric properties the paper's experiments
// rely on (bulk:wall ratios, inlet/outlet presence, fill fractions).
#include <gtest/gtest.h>

#include "geometry/generators.hpp"
#include "geometry/stencil.hpp"
#include "geometry/voxel_grid.hpp"

namespace hemo::geometry {
namespace {

TEST(Stencil, OppositeNegatesOffsets) {
  for (index_t i = 0; i < kQ; ++i) {
    const Offset& a = kD3Q19[static_cast<std::size_t>(i)];
    const Offset& b = kD3Q19[static_cast<std::size_t>(opposite(i))];
    EXPECT_EQ(a.dx, -b.dx);
    EXPECT_EQ(a.dy, -b.dy);
    EXPECT_EQ(a.dz, -b.dz);
    EXPECT_EQ(opposite(opposite(i)), i);
  }
}

TEST(Stencil, DirectionsAreUniqueAndD3Q19) {
  for (index_t i = 0; i < kQ; ++i) {
    for (index_t j = i + 1; j < kQ; ++j) {
      const Offset& a = kD3Q19[static_cast<std::size_t>(i)];
      const Offset& b = kD3Q19[static_cast<std::size_t>(j)];
      EXPECT_FALSE(a.dx == b.dx && a.dy == b.dy && a.dz == b.dz);
    }
    const Offset& o = kD3Q19[static_cast<std::size_t>(i)];
    // D3Q19 excludes corner directions: |dx|+|dy|+|dz| <= 2.
    EXPECT_LE(std::abs(o.dx) + std::abs(o.dy) + std::abs(o.dz), 2);
  }
}

TEST(VoxelGrid, OutOfBoundsReadsSolid) {
  VoxelGrid g(4, 4, 4);
  EXPECT_EQ(g.at(-1, 0, 0), PointType::kSolid);
  EXPECT_EQ(g.at(0, 0, 4), PointType::kSolid);
  EXPECT_FALSE(g.is_fluid(100, 0, 0));
}

TEST(VoxelGrid, SetAndCount) {
  VoxelGrid g(3, 3, 3);
  g.set(1, 1, 1, PointType::kBulk);
  const TypeCounts c = g.count_types();
  EXPECT_EQ(c.bulk, 1);
  EXPECT_EQ(c.solid, 26);
  EXPECT_EQ(c.fluid(), 1);
}

TEST(VoxelGrid, ClassifyWallsSingleInterior) {
  // 5^3 grid fully fluid: only the center of a 3x3x3 fluid block is bulk.
  VoxelGrid g(3, 3, 3);
  for (index_t z = 0; z < 3; ++z) {
    for (index_t y = 0; y < 3; ++y) {
      for (index_t x = 0; x < 3; ++x) g.set(x, y, z, PointType::kBulk);
    }
  }
  g.classify_walls();
  EXPECT_EQ(g.at(1, 1, 1), PointType::kBulk);
  EXPECT_EQ(g.at(0, 1, 1), PointType::kWall);
  EXPECT_EQ(g.at(0, 0, 0), PointType::kWall);
  const TypeCounts c = g.count_types();
  EXPECT_EQ(c.bulk, 1);
  EXPECT_EQ(c.wall, 26);
}

TEST(VoxelGrid, ClassifyPreservesInletOutlet) {
  VoxelGrid g(3, 3, 3);
  for (index_t x = 0; x < 3; ++x) g.set(x, 1, 1, PointType::kBulk);
  g.set(0, 1, 1, PointType::kInlet);
  g.set(2, 1, 1, PointType::kOutlet);
  g.classify_walls();
  EXPECT_EQ(g.at(0, 1, 1), PointType::kInlet);
  EXPECT_EQ(g.at(2, 1, 1), PointType::kOutlet);
  EXPECT_EQ(g.at(1, 1, 1), PointType::kWall);  // has solid neighbors
}

TEST(CarveCapsule, CarvesSegmentInterior) {
  VoxelGrid g(20, 20, 20);
  carve_capsule(g, Point3{5.0, 10.0, 10.0}, Point3{15.0, 10.0, 10.0}, 3.0);
  EXPECT_TRUE(g.is_fluid(10, 10, 10));
  EXPECT_TRUE(g.is_fluid(10, 12, 10));   // within radius
  EXPECT_FALSE(g.is_fluid(10, 15, 10));  // outside radius
  EXPECT_FALSE(g.is_fluid(1, 10, 10));   // beyond the cap
}

TEST(Cylinder, HasInletOutletAndExpectedCounts) {
  const Geometry geo = make_cylinder({.radius = 6, .length = 40});
  const TypeCounts c = geo.grid.count_types();
  EXPECT_GT(c.inlet, 0);
  EXPECT_GT(c.outlet, 0);
  EXPECT_GT(c.bulk, 0);
  EXPECT_GT(c.wall, 0);
  EXPECT_EQ(geo.inlets.size(), 1u);
  // Fluid volume close to pi r^2 L.
  const real_t expected = 3.14159 * 6.0 * 6.0 * 40.0;
  EXPECT_NEAR(static_cast<real_t>(c.fluid()), expected, expected * 0.25);
}

TEST(Cylinder, InletDiscSitsOnZZero) {
  const Geometry geo = make_cylinder({.radius = 5, .length = 24});
  index_t inlet_on_face = 0;
  for (index_t y = 0; y < geo.grid.ny(); ++y) {
    for (index_t x = 0; x < geo.grid.nx(); ++x) {
      if (geo.grid.at(x, y, 0) == PointType::kInlet) ++inlet_on_face;
      // No inlet anywhere else.
      for (index_t z = 1; z < geo.grid.nz(); ++z) {
        EXPECT_NE(geo.grid.at(x, y, z), PointType::kInlet);
      }
    }
  }
  EXPECT_GT(inlet_on_face, 50);  // roughly pi * 5^2
}

TEST(Aorta, HasOneInletAndMultipleOutletRegions) {
  const Geometry geo = make_aorta({});
  const TypeCounts c = geo.grid.count_types();
  EXPECT_GT(c.inlet, 0);
  EXPECT_GT(c.outlet, c.inlet);  // descending root + three branches
  EXPECT_GT(c.fluid(), 10000);
  EXPECT_EQ(geo.inlets.size(), 1u);
}

TEST(Cerebral, DeterministicForFixedSeed) {
  const Geometry a = make_cerebral({.depth = 3, .seed = 7});
  const Geometry b = make_cerebral({.depth = 3, .seed = 7});
  EXPECT_EQ(a.grid.count_types().fluid(), b.grid.count_types().fluid());
  const Geometry c = make_cerebral({.depth = 3, .seed = 8});
  EXPECT_NE(a.grid.count_types().fluid(), c.grid.count_types().fluid());
}

TEST(GeometryStats, CerebralIsWallRichCylinderIsBulkRich) {
  // The property Fig. 3 depends on: the cylinder packs bulk points
  // efficiently; the thin-vesseled cerebral tree is dominated by wall
  // points (paper Section III-D).
  const GeometryStats cyl = compute_stats(make_cylinder({}));
  const GeometryStats cer =
      compute_stats(make_cerebral({.depth = 4}));
  EXPECT_GT(cyl.bulk_to_wall_ratio, cer.bulk_to_wall_ratio * 1.5);
  // Cylinder fills its bounding box densely; the tree is sparse.
  EXPECT_GT(cyl.fill_fraction, cer.fill_fraction * 3.0);
}

TEST(GeometryStats, AortaBetweenCylinderAndCerebral) {
  const real_t cyl = compute_stats(make_cylinder({})).bulk_to_wall_ratio;
  const real_t aorta = compute_stats(make_aorta({})).bulk_to_wall_ratio;
  const real_t cer =
      compute_stats(make_cerebral({.depth = 4})).bulk_to_wall_ratio;
  EXPECT_GT(cyl, aorta);
  EXPECT_GT(aorta, cer);
}

TEST(Generators, RejectDegenerateParameters) {
  EXPECT_THROW(make_cylinder({.radius = 1, .length = 2}), PreconditionError);
  EXPECT_THROW(make_cerebral({.depth = 0}), PreconditionError);
  AortaParams bad;
  bad.vessel_radius = 50.0;
  bad.arch_radius = 10.0;
  EXPECT_THROW(make_aorta(bad), PreconditionError);
}

TEST(NamedGeometry, EachNameBuildsItsGeneratorCall) {
  const std::vector<std::pair<std::string, Geometry>> expected = {
      {"cylinder", make_cylinder({.radius = 10, .length = 80})},
      {"aorta", make_aorta({})},
      {"cerebral", make_cerebral({.depth = 5})}};
  ASSERT_EQ(names().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& [name, geo] = expected[i];
    EXPECT_EQ(names()[i], name);
    const Geometry named = make_named(name);
    EXPECT_EQ(named.name, geo.name);
    EXPECT_EQ(named.grid.count_types().fluid(),
              geo.grid.count_types().fluid())
        << name;
  }
}

TEST(NamedGeometry, UnknownNameThrowsListingTheNames) {
  try {
    (void)make_named("carotid");
    FAIL() << "make_named accepted an unknown name";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("carotid"), std::string::npos) << what;
    for (const std::string& name : names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace hemo::geometry
