#include "geometry/voxel_grid.hpp"

namespace hemo::geometry {

VoxelGrid::VoxelGrid(index_t nx, index_t ny, index_t nz)
    : nx_(nx), ny_(ny), nz_(nz) {
  HEMO_REQUIRE(nx > 0 && ny > 0 && nz > 0, "VoxelGrid dimensions must be > 0");
  flags_.assign(static_cast<std::size_t>(nx * ny * nz), PointType::kSolid);
}

void VoxelGrid::set(index_t x, index_t y, index_t z, PointType t) {
  HEMO_REQUIRE(in_bounds(x, y, z), "VoxelGrid::set out of bounds");
  flags_[static_cast<std::size_t>(linear(x, y, z))] = t;
}

void VoxelGrid::classify_walls(bool periodic_x, bool periodic_y,
                               bool periodic_z) {
  for (index_t z = 0; z < nz_; ++z) {
    for (index_t y = 0; y < ny_; ++y) {
      for (index_t x = 0; x < nx_; ++x) {
        const PointType t = at(x, y, z);
        if (t != PointType::kBulk && t != PointType::kWall) continue;
        bool has_solid_neighbor = false;
        for (index_t q = 1; q < kQ; ++q) {
          const Offset& o = kD3Q19[static_cast<std::size_t>(q)];
          index_t nx = x + o.dx, ny = y + o.dy, nz = z + o.dz;
          if (periodic_x) nx = (nx + nx_) % nx_;
          if (periodic_y) ny = (ny + ny_) % ny_;
          if (periodic_z) nz = (nz + nz_) % nz_;
          if (at(nx, ny, nz) == PointType::kSolid) {
            has_solid_neighbor = true;
            break;
          }
        }
        set(x, y, z,
            has_solid_neighbor ? PointType::kWall : PointType::kBulk);
      }
    }
  }
}

TypeCounts VoxelGrid::count_types() const {
  TypeCounts c;
  for (PointType t : flags_) {
    switch (t) {
      case PointType::kSolid: ++c.solid; break;
      case PointType::kBulk: ++c.bulk; break;
      case PointType::kWall: ++c.wall; break;
      case PointType::kInlet: ++c.inlet; break;
      case PointType::kOutlet: ++c.outlet; break;
    }
  }
  return c;
}

}  // namespace hemo::geometry
