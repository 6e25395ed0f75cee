// Dense voxel grid with per-voxel point classification.
//
// HemoCloud geometries are voxelizations of vessel lumens: each voxel is
// solid (outside the lumen) or one of four fluid classes. "Wall" fluid
// points have at least one solid D3Q19 neighbor and stream via bounce-back;
// they cost fewer memory accesses per update, which is why the cerebral
// geometry outperforms the others in the paper's Fig. 3.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geometry/stencil.hpp"
#include "util/common.hpp"

namespace hemo::geometry {

/// Classification of one voxel.
enum class PointType : std::uint8_t {
  kSolid = 0,   ///< outside the lumen; not simulated
  kBulk = 1,    ///< interior fluid, all 18 neighbors are fluid
  kWall = 2,    ///< fluid with >= 1 solid neighbor (bounce-back links)
  kInlet = 3,   ///< fluid on an inlet face (Poiseuille velocity BC)
  kOutlet = 4,  ///< fluid on an outlet face (zero-pressure BC)
};

/// Integer voxel coordinate.
struct Voxel {
  index_t x = 0;
  index_t y = 0;
  index_t z = 0;

  friend bool operator==(const Voxel&, const Voxel&) = default;
};

/// Count of voxels per classification (see VoxelGrid::count_types).
struct TypeCounts {
  index_t solid = 0;
  index_t bulk = 0;
  index_t wall = 0;
  index_t inlet = 0;
  index_t outlet = 0;

  [[nodiscard]] index_t fluid() const noexcept {
    return bulk + wall + inlet + outlet;
  }
};

/// Dense 3-D grid of PointType. Out-of-bounds coordinates read as kSolid,
/// so the domain is implicitly embedded in an infinite solid.
class VoxelGrid {
 public:
  VoxelGrid(index_t nx, index_t ny, index_t nz);

  [[nodiscard]] index_t nx() const noexcept { return nx_; }
  [[nodiscard]] index_t ny() const noexcept { return ny_; }
  [[nodiscard]] index_t nz() const noexcept { return nz_; }
  [[nodiscard]] index_t volume() const noexcept { return nx_ * ny_ * nz_; }

  [[nodiscard]] bool in_bounds(index_t x, index_t y, index_t z) const noexcept {
    return x >= 0 && x < nx_ && y >= 0 && y < ny_ && z >= 0 && z < nz_;
  }

  /// Linearized voxel index (x fastest). Requires in_bounds.
  [[nodiscard]] index_t linear(index_t x, index_t y, index_t z) const noexcept {
    return (z * ny_ + y) * nx_ + x;
  }

  /// Classification at (x, y, z); kSolid outside the grid.
  [[nodiscard]] PointType at(index_t x, index_t y, index_t z) const noexcept {
    if (!in_bounds(x, y, z)) return PointType::kSolid;
    return flags_[static_cast<std::size_t>(linear(x, y, z))];
  }

  /// Mutable access. Requires in_bounds.
  void set(index_t x, index_t y, index_t z, PointType t);

  /// True if the voxel holds any fluid class.
  [[nodiscard]] bool is_fluid(index_t x, index_t y, index_t z) const noexcept {
    return at(x, y, z) != PointType::kSolid;
  }

  /// Re-derives kBulk/kWall for every fluid voxel that is not an inlet or
  /// outlet: a fluid voxel becomes kWall iff any of its 18 non-rest D3Q19
  /// neighbors is solid (or out of bounds). Call after carving geometry.
  /// Periodic flags wrap the neighbor lookup around the given axes so that
  /// domain-face voxels of a periodic direction stay bulk (used together
  /// with lbm::MeshOptions periodicity for force-driven flows).
  void classify_walls(bool periodic_x = false, bool periodic_y = false,
                      bool periodic_z = false);

  /// Tallies voxels per classification.
  [[nodiscard]] TypeCounts count_types() const;

 private:
  index_t nx_, ny_, nz_;
  std::vector<PointType> flags_;
};

}  // namespace hemo::geometry
