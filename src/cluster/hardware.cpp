#include "cluster/hardware.hpp"

#include <cmath>

namespace hemo::cluster {

std::uint64_t instance_hash(const InstanceProfile& profile) {
  std::uint64_t h = 0x8c2f9d4b6a1e3057ULL;
  for (char c : profile.abbrev) {
    h = hash_seed(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

units::MegabytesPerSec MemorySystem::measured_node_bandwidth(
    index_t threads, index_t sample) const {
  HEMO_REQUIRE(threads >= 1, "need at least one thread");
  const units::MegabytesPerSec ideal =
      ideal_node_bandwidth(static_cast<real_t>(threads));
  Xoshiro256 rng(hash_seed(instance_hash(*profile_), 0x57a3u,
                           static_cast<std::uint64_t>(threads),
                           static_cast<std::uint64_t>(sample)));
  real_t cov = 0.01;  // benchmark-level jitter
  if (profile_->shared_memory_channels &&
      static_cast<real_t>(threads) > profile_->memory.a3) {
    // Not every core has its own channel: contention varies with placement.
    cov = 0.06;
  }
  return ideal * std::max(0.5, 1.0 + cov * rng.gaussian());
}

units::MegabytesPerSec MemorySystem::task_bandwidth(
    index_t tasks_on_node) const {
  HEMO_REQUIRE(tasks_on_node >= 1, "need at least one task");
  const units::MegabytesPerSec node_bw =
      ideal_node_bandwidth(static_cast<real_t>(tasks_on_node));
  return node_bw / static_cast<real_t>(tasks_on_node);
}

units::Microseconds Interconnect::message_time(units::Bytes bytes,
                                               bool internode) const {
  HEMO_REQUIRE(bytes.value() >= 0.0, "negative message size");
  const CommParams& c = internode ? profile_->inter : profile_->intra;
  // Bandwidth term: bytes / (MB/s) = microseconds when bytes are in units
  // of B and bandwidth in B/us (1 MB/s = 1 B/us).
  const real_t transfer_us = bytes.value() / c.bandwidth.value();
  // Mild super-linearity: rendezvous-protocol switches and packetization
  // make the effective per-message overhead grow slowly with size.
  const real_t latency_us =
      c.latency.value() *
      (1.0 + 0.15 * std::log10(1.0 + bytes.value() / 4096.0));
  return units::Microseconds(latency_us + transfer_us);
}

units::Microseconds Interconnect::measured_pingpong(units::Bytes bytes,
                                                    bool internode,
                                                    index_t sample) const {
  Xoshiro256 rng(hash_seed(instance_hash(*profile_), 0x91c7u,
                           static_cast<std::uint64_t>(bytes.value()),
                           internode ? 1u : 0u,
                           static_cast<std::uint64_t>(sample)));
  const units::Microseconds ideal = message_time(bytes, internode);
  return ideal * std::max(0.6, 1.0 + 0.03 * rng.gaussian());
}

GpuSystem::GpuSystem(const InstanceProfile& profile) : profile_(&profile) {
  HEMO_REQUIRE(profile.gpu.has_value(),
               "GpuSystem requires a GPU-equipped instance profile");
}

units::MegabytesPerSec GpuSystem::effective_bandwidth() const noexcept {
  return profile_->gpu->memory_bandwidth * profile_->gpu->kernel_efficiency;
}

units::MegabytesPerSec GpuSystem::measured_bandwidth(
    index_t sample) const {
  Xoshiro256 rng(hash_seed(instance_hash(*profile_), 0x6b21u,
                           static_cast<std::uint64_t>(sample)));
  return profile_->gpu->memory_bandwidth *
         std::max(0.5, 1.0 + 0.015 * rng.gaussian());
}

units::Microseconds GpuSystem::transfer_time(units::Bytes bytes) const {
  HEMO_REQUIRE(bytes.value() >= 0.0, "negative transfer size");
  const GpuSpec& g = *profile_->gpu;
  // Same rendezvous-style super-linearity as the network: pinned-buffer
  // staging grows the per-transfer overhead slowly with size.
  const real_t latency =
      g.pcie_latency.value() *
      (1.0 + 0.10 * std::log10(1.0 + bytes.value() / 16384.0));
  return units::Microseconds(latency + bytes.value() / g.pcie_bandwidth.value());
}

units::Microseconds GpuSystem::measured_transfer(units::Bytes bytes,
                                                 index_t sample) const {
  Xoshiro256 rng(hash_seed(instance_hash(*profile_), 0x44f9u,
                           static_cast<std::uint64_t>(bytes.value()),
                           static_cast<std::uint64_t>(sample)));
  return transfer_time(bytes) * std::max(0.6, 1.0 + 0.02 * rng.gaussian());
}

real_t NoiseModel::factor(index_t day, index_t hour, index_t slot) const {
  Xoshiro256 rng(hash_seed(instance_hash_, 0x33d1u,
                           static_cast<std::uint64_t>(day),
                           static_cast<std::uint64_t>(hour),
                           static_cast<std::uint64_t>(slot)));
  // Diurnal swing: +-40 % of the noise CoV over the day.
  const real_t diurnal =
      0.4 * profile_->noise_cov *
      std::sin(2.0 * 3.14159265358979323846 *
               (static_cast<real_t>(hour) / 24.0));
  const real_t jitter = profile_->noise_cov * rng.gaussian();
  return std::max(0.7, 1.0 + diurnal + jitter);
}

}  // namespace hemo::cluster
