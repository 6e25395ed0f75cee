#include "lbm/mesh.hpp"

namespace hemo::lbm {

FluidMesh FluidMesh::build(const geometry::VoxelGrid& grid,
                           const MeshOptions& options) {
  FluidMesh mesh;
  // First pass: map voxel linear index -> fluid point index.
  std::vector<std::int32_t> point_of(
      static_cast<std::size_t>(grid.volume()), kSolidLink);
  for (index_t z = 0; z < grid.nz(); ++z) {
    for (index_t y = 0; y < grid.ny(); ++y) {
      for (index_t x = 0; x < grid.nx(); ++x) {
        if (!grid.is_fluid(x, y, z)) continue;
        point_of[static_cast<std::size_t>(grid.linear(x, y, z))] =
            static_cast<std::int32_t>(mesh.coords_.size());
        mesh.coords_.push_back(Voxel{x, y, z});
        mesh.types_.push_back(grid.at(x, y, z));
      }
    }
  }

  // Second pass: neighbor table + solid-link counts. Every point writes
  // every entry of its own row, so the rows are sized unwritten here and
  // first touched by the thread that fills them.
  const index_t n = mesh.num_points();
  mesh.neighbors_.resize(static_cast<std::size_t>(n * kQ));
  mesh.solid_links_.resize(static_cast<std::size_t>(n));
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (index_t p = 0; p < n; ++p) {
    const Voxel& v = mesh.coords_[static_cast<std::size_t>(p)];
    index_t solid = 0;
    for (index_t q = 0; q < kQ; ++q) {
      const auto& o = kD3Q19[static_cast<std::size_t>(q)];
      index_t x = v.x + o.dx, y = v.y + o.dy, z = v.z + o.dz;
      if (options.periodic_x) x = (x + grid.nx()) % grid.nx();
      if (options.periodic_y) y = (y + grid.ny()) % grid.ny();
      if (options.periodic_z) z = (z + grid.nz()) % grid.nz();
      std::int32_t nb = kSolidLink;
      if (grid.in_bounds(x, y, z) && grid.is_fluid(x, y, z)) {
        nb = point_of[static_cast<std::size_t>(grid.linear(x, y, z))];
      }
      mesh.neighbors_[static_cast<std::size_t>(p * kQ + q)] = nb;
      if (q > 0 && nb == kSolidLink) ++solid;
    }
    mesh.solid_links_[static_cast<std::size_t>(p)] =
        static_cast<std::int16_t>(solid);
  }
  return mesh;
}

geometry::TypeCounts FluidMesh::type_counts() const {
  geometry::TypeCounts c;
  for (PointType t : types_) {
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

index_t FluidMesh::total_solid_links() const {
  index_t total = 0;
  for (std::int16_t s : solid_links_) total += s;
  return total;
}

}  // namespace hemo::lbm
