#include "lbm/mesh_segments.hpp"

#include <algorithm>

namespace hemo::lbm {

namespace {

/// Fast-path membership: interior bulk points have no boundary condition
/// and no bounce-back link, so their update is pure gather + collide.
[[nodiscard]] bool is_bulk_interior(const FluidMesh& mesh, index_t p) {
  return mesh.type(p) == PointType::kBulk && mesh.solid_links(p) == 0;
}

}  // namespace

SegmentedMesh SegmentedMesh::build(const FluidMesh& mesh) {
  SegmentedMesh seg;
  const index_t n = mesh.num_points();
  seg.position_of_.assign(static_cast<std::size_t>(n), 0);
  seg.assemble(
      mesh, n, [](index_t k) { return k; },
      [](std::int32_t) { return true; }, seg.position_of_);
  return seg;
}

SegmentedMesh SegmentedMesh::build_rank(const FluidMesh& mesh,
                                        std::span<const index_t> owned,
                                        std::span<const std::int32_t> task_of,
                                        std::int32_t rank,
                                        std::span<std::int32_t> position) {
  SegmentedMesh seg;
  seg.assemble(
      mesh, static_cast<index_t>(owned.size()),
      [&](index_t k) { return owned[static_cast<std::size_t>(k)]; },
      [&](std::int32_t nb) {
        return task_of[static_cast<std::size_t>(nb)] == rank;
      },
      position);
  return seg;
}

template <typename PointOf, typename IsOwned>
void SegmentedMesh::assemble(const FluidMesh& mesh, index_t n_owned,
                             PointOf point_of, IsOwned is_owned,
                             std::span<std::int32_t> position) {
  // Class of every owned point, in input order: 0 bulk-interior, 1 other
  // boundary, 2 frontier (an upstream neighbor is not owned, so the gather
  // reads a ghost slot; boundary path, ordered last). Non-owned upstream
  // neighbors become the ghost tail.
  constexpr std::uint8_t kInterior = 0, kBoundary = 1, kFrontier = 2;
  std::vector<std::uint8_t> cls(static_cast<std::size_t>(n_owned));
  std::array<index_t, 3> count{};
  std::vector<index_t> ghosts;
  for (index_t k = 0; k < n_owned; ++k) {
    const index_t p = point_of(k);
    bool frontier = false;
    for (index_t q = 1; q < kQ; ++q) {
      const std::int32_t nb = mesh.neighbor(p, q);
      if (nb != kSolidLink && !is_owned(nb)) {
        frontier = true;
        ghosts.push_back(nb);
      }
    }
    const std::uint8_t c = frontier                    ? kFrontier
                           : is_bulk_interior(mesh, p) ? kInterior
                                                       : kBoundary;
    cls[static_cast<std::size_t>(k)] = c;
    ++count[c];
  }
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());

  // Stable permutation: each class keeps the input order. Stability is
  // what makes the mesh's x-contiguous interior rows stay contiguous, which
  // the RLE pass below turns into long constant-offset spans.
  n_ = n_owned;
  bulk_count_ = count[kInterior];
  frontier_begin_ = count[kInterior] + count[kBoundary];
  point_at_.resize(static_cast<std::size_t>(n_) + ghosts.size());
  std::array<index_t, 3> next = {0, bulk_count_, frontier_begin_};
  for (index_t k = 0; k < n_owned; ++k) {
    const index_t p = point_of(k);
    const index_t i = next[cls[static_cast<std::size_t>(k)]]++;
    point_at_[static_cast<std::size_t>(i)] = p;
    position[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(i);
  }
  std::copy(ghosts.begin(), ghosts.end(),
            point_at_.begin() + static_cast<std::ptrdiff_t>(n_));

  const auto slot_of = [&](std::int32_t nb) -> std::int32_t {
    if (is_owned(nb)) return position[static_cast<std::size_t>(nb)];
    const auto it = std::lower_bound(ghosts.begin(), ghosts.end(),
                                     static_cast<index_t>(nb));
    return static_cast<std::int32_t>(n_ + (it - ghosts.begin()));
  };

  // One pass in position order: neighbor rows, types, the class census,
  // and the RLE spans over the bulk-interior segment. A span extends while
  // every direction's neighbor offset matches the span's; bulk-interior
  // points have no solid links and no ghost neighbors, so every offset is
  // a real delta between owned positions.
  neighbors_.assign(static_cast<std::size_t>(n_ * kQ), kSolidLink);
  types_.resize(static_cast<std::size_t>(n_));
  for (index_t i = 0; i < n_; ++i) {
    const index_t p = point_at_[static_cast<std::size_t>(i)];
    types_[static_cast<std::size_t>(i)] = mesh.type(p);
    switch (mesh.type(p)) {
      case PointType::kBulk:
        if (mesh.solid_links(p) == 0) ++counts_.bulk_interior;
        else ++counts_.bulk_edge;
        break;
      case PointType::kWall: ++counts_.wall; break;
      case PointType::kInlet: ++counts_.inlet; break;
      case PointType::kOutlet: ++counts_.outlet; break;
      case PointType::kSolid: break;  // never stored in a FluidMesh
    }
    std::int32_t* row = neighbors_.data() + i * kQ;
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = mesh.neighbor(p, q);
      if (nb != kSolidLink) row[q] = slot_of(nb);
    }
    if (i >= bulk_count_) continue;
    std::array<std::int32_t, kQ> offsets;
    for (index_t q = 0; q < kQ; ++q) {
      offsets[static_cast<std::size_t>(q)] =
          row[q] - static_cast<std::int32_t>(i);
    }
    if (spans_.empty() || spans_.back().offsets != offsets) {
      spans_.push_back(SegmentSpan{i, 1, offsets});
    } else {
      ++spans_.back().length;
    }
  }
}

real_t SegmentedMesh::mean_span_length() const noexcept {
  if (spans_.empty()) return 0.0;
  return static_cast<real_t>(bulk_count_) /
         static_cast<real_t>(spans_.size());
}

index_t SegmentedMesh::max_span_length() const noexcept {
  index_t longest = 0;
  for (const SegmentSpan& s : spans_) longest = std::max(longest, s.length);
  return longest;
}

}  // namespace hemo::lbm
