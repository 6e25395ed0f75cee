#include "harvey/halo.hpp"

#include <map>
#include <utility>

#include "lbm/solver.hpp"

namespace hemo::harvey {

using lbm::kQ;

real_t HaloExchange::bytes_per_exchange() const {
  real_t bytes = 0.0;
  for (const HaloChannel& channel : channels) {
    bytes += static_cast<real_t>(channel.payload_values()) *
             static_cast<real_t>(sizeof(double));
  }
  return bytes;
}

HaloExchange build_halo_exchange(const lbm::FluidMesh& mesh,
                                 const decomp::Partition& partition) {
  HEMO_REQUIRE(partition.n_tasks >= 1, "partition needs at least one task");
  HEMO_REQUIRE(static_cast<index_t>(partition.task_of.size()) ==
                   mesh.num_points(),
               "partition does not cover the mesh");

  HaloExchange topo;
  topo.owner_slot.assign(static_cast<std::size_t>(mesh.num_points()), 0);
  topo.ranks.reserve(static_cast<std::size_t>(partition.n_tasks));
  for (index_t t = 0; t < partition.n_tasks; ++t) {
    topo.ranks.push_back(lbm::SegmentedMesh::build_rank(
        mesh, partition.points_of[static_cast<std::size_t>(t)],
        partition.task_of, static_cast<std::int32_t>(t), topo.owner_slot));
    const lbm::SegmentedMesh& view = topo.ranks.back();
    topo.n_ghosts += view.num_slots() - view.num_points();
  }

  // Channels: one directed message per (owner, receiver) pair that shares
  // ghosts, with pack/unpack slot lists in the receiver's ascending ghost
  // order.
  std::map<std::pair<std::int32_t, std::int32_t>, index_t> channel_index;
  for (index_t t = 0; t < partition.n_tasks; ++t) {
    const lbm::SegmentedMesh& view = topo.ranks[static_cast<std::size_t>(t)];
    for (index_t g = view.num_points(); g < view.num_slots(); ++g) {
      const auto global = static_cast<std::size_t>(view.point_at(g));
      const std::int32_t owner = partition.task_of[global];
      const auto key = std::make_pair(owner, static_cast<std::int32_t>(t));
      auto it = channel_index.find(key);
      if (it == channel_index.end()) {
        it = channel_index
                 .emplace(key, static_cast<index_t>(topo.channels.size()))
                 .first;
        topo.channels.push_back(
            HaloChannel{owner, static_cast<std::int32_t>(t), {}, {}});
      }
      HaloChannel& channel =
          topo.channels[static_cast<std::size_t>(it->second)];
      channel.src_slots.push_back(topo.owner_slot[global]);
      channel.dst_slots.push_back(static_cast<std::int32_t>(g));
    }
  }
  return topo;
}

void pack_channel(const HaloChannel& channel, lbm::Layout layout,
                  std::span<const double> owner_f, std::span<double> buffer) {
  const auto rows = static_cast<index_t>(owner_f.size()) / kQ;
  const auto pack = [&]<lbm::Layout L>() {
    std::size_t k = 0;
    for (const std::int32_t row : channel.src_slots) {
      for (index_t q = 0; q < kQ; ++q) {
        buffer[k++] = owner_f[static_cast<std::size_t>(
            lbm::dist_offset(L, rows, row, q))];
      }
    }
  };
  if (layout == lbm::Layout::kAoS) {
    pack.template operator()<lbm::Layout::kAoS>();
  } else {
    pack.template operator()<lbm::Layout::kSoA>();
  }
}

void unpack_channel(const HaloChannel& channel, lbm::Layout layout,
                    std::span<const double> buffer,
                    std::span<double> receiver_f) {
  const auto rows = static_cast<index_t>(receiver_f.size()) / kQ;
  const auto unpack = [&]<lbm::Layout L>() {
    std::size_t k = 0;
    for (const std::int32_t row : channel.dst_slots) {
      for (index_t q = 0; q < kQ; ++q) {
        receiver_f[static_cast<std::size_t>(
            lbm::dist_offset(L, rows, row, q))] = buffer[k++];
      }
    }
  };
  if (layout == lbm::Layout::kAoS) {
    unpack.template operator()<lbm::Layout::kAoS>();
  } else {
    unpack.template operator()<lbm::Layout::kSoA>();
  }
}

}  // namespace hemo::harvey
