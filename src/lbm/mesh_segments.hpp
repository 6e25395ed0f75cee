// Segment-reordered view of a FluidMesh for branch-free streaming kernels.
//
// Sparse-geometry LBM pays two hot-path taxes the hardware does not
// require: a 19-wide neighbor-table gather per point, and a per-point
// type/pulse/LES branch. Following the HemeLB/Wittmann line of work, this
// layer removes both for the dominant point class:
//
//  * Classification — points split into the *bulk-interior* segment
//    (PointType::kBulk with zero solid links: every one of the 19
//    neighbors is fluid, so no bounce-back and no boundary condition) and
//    the *boundary* segment (wall/inlet/outlet points plus any point with
//    a solid link).
//  * Stable permutation — bulk-interior points first, boundary points
//    after, each preserving the original relative order. Solvers keep
//    their distribution arrays in this order; public point indices stay
//    the original mesh order and are translated via position_of() /
//    point_at(), so IO, observables, and the decomposition layer are
//    unchanged.
//  * Run-length encoding — maximal spans of consecutive bulk-interior
//    positions whose 19 neighbor offsets (neighbor position minus own
//    position) are constant. Inside a span the kernel streams with direct
//    indexing (position + compile-time-hoisted offset) instead of
//    per-link neighbor() gathers, which is what lets the inner loop
//    vectorize.
//
// The same view describes one rank of a partitioned mesh (build_rank):
// the owned points are the swept positions, the non-owned upstream
// neighbors form a *ghost tail* of read-only slots after them, and owned
// points whose gather reads a ghost slot form a *frontier* class ordered
// last, on the boundary path. HARVEY's overlap then needs only positions:
// [0, frontier_begin()) can be updated before any halo message arrives,
// [frontier_begin(), num_points()) after.
//
// The segmentation is purely a reordering: kernels that process every
// point with unchanged per-point arithmetic produce bit-identical state
// (tests/test_kernel_paths.cpp asserts this against the reference path).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "lbm/mesh.hpp"
#include "util/common.hpp"

namespace hemo::lbm {

/// A run of consecutive internal positions with constant neighbor offsets:
/// for every position i in [begin, begin + length) and direction q, the
/// neighbor of i in direction q sits at position i + offsets[q].
struct SegmentSpan {
  index_t begin = 0;
  index_t length = 0;
  std::array<std::int32_t, kQ> offsets{};
};

/// Point counts per segment class (bench/diagnostic output).
struct SegmentCounts {
  index_t bulk_interior = 0;  ///< kBulk, zero solid links (fast path)
  index_t bulk_edge = 0;      ///< kBulk with solid links (boundary path)
  index_t wall = 0;
  index_t inlet = 0;
  index_t outlet = 0;
};

/// Immutable segment-reordered slot space over a FluidMesh.
class SegmentedMesh {
 public:
  /// Classifies, permutes, and run-length-encodes the whole of `mesh`
  /// (no ghosts, no frontier).
  static SegmentedMesh build(const FluidMesh& mesh);

  /// The slot space of rank `rank` of a partition: `owned` lists its
  /// points (ascending global ids), `task_of` maps every global point to
  /// its rank. `position` (indexed by global point, shared by all ranks)
  /// receives each owned point's position; the view itself keeps no table
  /// indexed by global point, so position_of() is unavailable on it.
  static SegmentedMesh build_rank(const FluidMesh& mesh,
                                  std::span<const index_t> owned,
                                  std::span<const std::int32_t> task_of,
                                  std::int32_t rank,
                                  std::span<std::int32_t> position);

  /// Swept (owned) positions: [0, num_points()).
  [[nodiscard]] index_t num_points() const noexcept { return n_; }

  /// Rows of a distribution array over this view: the owned positions
  /// plus the ghost tail [num_points(), num_slots()).
  [[nodiscard]] index_t num_slots() const noexcept {
    return static_cast<index_t>(point_at_.size());
  }

  /// Positions [0, bulk_count()) are the bulk-interior segment; positions
  /// [bulk_count(), num_points()) are the boundary segment.
  [[nodiscard]] index_t bulk_count() const noexcept { return bulk_count_; }

  /// First position whose gather reads a ghost slot (num_points() when
  /// there are no ghosts). Always >= bulk_count().
  [[nodiscard]] index_t frontier_begin() const noexcept {
    return frontier_begin_;
  }

  /// Internal position of original mesh point p (whole-mesh views only).
  [[nodiscard]] index_t position_of(index_t p) const noexcept {
    return position_of_[static_cast<std::size_t>(p)];
  }

  /// Original mesh point stored at slot i (owned or ghost).
  [[nodiscard]] index_t point_at(index_t i) const noexcept {
    return point_at_[static_cast<std::size_t>(i)];
  }

  /// Slot of position i's neighbor in direction q, or kSolidLink.
  [[nodiscard]] std::int32_t neighbor(index_t i, index_t q) const noexcept {
    return neighbors_[static_cast<std::size_t>(i * kQ + q)];
  }

  /// Point type at internal position i.
  [[nodiscard]] PointType type(index_t i) const noexcept {
    return types_[static_cast<std::size_t>(i)];
  }

  /// RLE spans covering exactly [0, bulk_count()), ordered by begin.
  [[nodiscard]] const std::vector<SegmentSpan>& spans() const noexcept {
    return spans_;
  }

  /// Mesh point classes of the owned points.
  [[nodiscard]] const SegmentCounts& counts() const noexcept {
    return counts_;
  }

  /// Mean span length (0 when there is no bulk segment).
  [[nodiscard]] real_t mean_span_length() const noexcept;

  /// Longest span length (0 when there is no bulk segment).
  [[nodiscard]] index_t max_span_length() const noexcept;

 private:
  template <typename PointOf, typename IsOwned>
  void assemble(const FluidMesh& mesh, index_t n_owned, PointOf point_of,
                IsOwned is_owned, std::span<std::int32_t> position);

  index_t n_ = 0;
  index_t bulk_count_ = 0;
  index_t frontier_begin_ = 0;
  std::vector<std::int32_t> position_of_;  // whole-mesh views only
  std::vector<index_t> point_at_;          // num_slots()
  std::vector<std::int32_t> neighbors_;    // n_ * kQ, slots
  std::vector<PointType> types_;           // by position
  std::vector<SegmentSpan> spans_;
  SegmentCounts counts_;
};

}  // namespace hemo::lbm
