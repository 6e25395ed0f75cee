// Halo-exchange topology of a partitioned mesh.
//
// runtime::ParallelSolver runs one rank per partition task. Each rank
// sweeps its own lbm::SegmentedMesh slot space (SegmentedMesh::build_rank)
// with the serial solver's segmented range kernels: owned positions in
// segment order, owned points whose gather reads a ghost slot ordered last
// (the *frontier*), and the ghost rows as a read-only tail that is never
// swept. This layer builds those per-rank views and the directed pack/
// unpack channels that stand in for MPI point-to-point messages: the owner
// packs the listed owned rows of its array into a message buffer, the
// receiver unpacks the buffer into its ghost rows. Pack and unpack index
// the arrays through the kernel layout, so every layout the range kernels
// sweep can be exchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "decomp/partition.hpp"
#include "lbm/kernel_config.hpp"
#include "lbm/mesh.hpp"
#include "lbm/mesh_segments.hpp"
#include "util/common.hpp"

namespace hemo::harvey {

/// One directed per-step halo message: the owner packs the listed rows
/// ("send"), the receiver unpacks them into its ghost rows ("recv"). The
/// buffer holds kQ values per row, row by row, in either layout.
struct HaloChannel {
  std::int32_t from = 0;  ///< owner rank
  std::int32_t to = 0;    ///< receiver rank
  std::vector<std::int32_t> src_slots;  ///< owner-side owned positions
  std::vector<std::int32_t> dst_slots;  ///< receiver-side ghost slots

  /// Payload length in values (slots * kQ).
  [[nodiscard]] index_t payload_values() const noexcept {
    return static_cast<index_t>(src_slots.size()) * lbm::kQ;
  }
};

/// The full halo-exchange topology of a partitioned mesh.
struct HaloExchange {
  std::vector<lbm::SegmentedMesh> ranks;  ///< slot space of each rank
  std::vector<HaloChannel> channels;      ///< deterministic (from, to) order
  /// Per global point: its position in the owning rank's view (the owning
  /// rank is the partition's task_of).
  std::vector<std::int32_t> owner_slot;
  index_t n_ghosts = 0;  ///< sum of ghost counts over ranks

  [[nodiscard]] index_t channel_count() const noexcept {
    return static_cast<index_t>(channels.size());
  }

  /// Total bytes moved through halo messages per step (whole-row ghosts:
  /// an upper bound on the comm graph's per-link byte count).
  [[nodiscard]] real_t bytes_per_exchange() const;
};

/// Builds every rank's segmented slot space (ghost discovery, local
/// neighbor table, interior/frontier order and RLE spans in one pass per
/// rank) and one directed channel per (owner, receiver) pair that shares
/// ghosts, with rows in the receiver's ascending ghost order.
[[nodiscard]] HaloExchange build_halo_exchange(
    const lbm::FluidMesh& mesh, const decomp::Partition& partition);

/// Packs the channel's source rows of the owner's array (`layout`,
/// owner_f.size() / kQ rows) into `buffer` (channel.payload_values()).
void pack_channel(const HaloChannel& channel, lbm::Layout layout,
                  std::span<const double> owner_f, std::span<double> buffer);

/// Unpacks `buffer` into the receiver's ghost rows.
void unpack_channel(const HaloChannel& channel, lbm::Layout layout,
                    std::span<const double> buffer,
                    std::span<double> receiver_f);

}  // namespace hemo::harvey
