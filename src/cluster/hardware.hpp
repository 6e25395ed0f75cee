// Ground-truth hardware behaviour of a virtual instance: memory subsystem,
// interconnect, and measurement noise.
//
// These classes are the "physics" of the simulated cloud. They deliberately
// contain effects the performance models do not capture — extra STREAM
// variance past the saturation knee on shared-channel nodes, a mild
// nonlinearity in message timing, diurnal noise — so that the model-vs-
// measured comparisons (paper Figs. 5-8, Table IV) have realistic error
// structure instead of tautological agreement.
#pragma once

#include <cstdint>

#include "cluster/instance.hpp"
#include "units/units.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace hemo::cluster {

/// Hash of an instance's identity, used to key noise streams.
[[nodiscard]] std::uint64_t instance_hash(const InstanceProfile& profile);

/// Memory subsystem of one node.
class MemorySystem {
 public:
  explicit MemorySystem(const InstanceProfile& profile)
      : profile_(&profile) {}

  /// Ideal (noise-free) node bandwidth with n active threads.
  [[nodiscard]] units::MegabytesPerSec ideal_node_bandwidth(
      real_t threads) const noexcept {
    return profile_->memory.node_bandwidth_mbs(threads);
  }

  /// One simulated STREAM COPY measurement at `threads` threads. The
  /// `sample` index decorrelates repeated measurements. Shared-channel
  /// nodes show inflated variance past the knee.
  [[nodiscard]] units::MegabytesPerSec measured_node_bandwidth(
      index_t threads, index_t sample) const;

  /// Bandwidth share of one task when `tasks_on_node` tasks are active
  /// (linear sharing assumption matching the paper's model, applied to the
  /// ground-truth law).
  [[nodiscard]] units::MegabytesPerSec task_bandwidth(
      index_t tasks_on_node) const;

 private:
  const InstanceProfile* profile_;
};

/// Point-to-point interconnect behaviour.
class Interconnect {
 public:
  explicit Interconnect(const InstanceProfile& profile)
      : profile_(&profile) {}

  /// Ground-truth one-way message time for m bytes. Slightly super-linear:
  /// effective latency grows ~15 % per decade of message size past 4 KiB,
  /// reproducing the paper's observation that a zero-byte-anchored linear
  /// fit underestimates latency at large sizes.
  [[nodiscard]] units::Microseconds message_time(units::Bytes bytes,
                                                 bool internode) const;

  /// One simulated PingPong measurement (includes noise).
  [[nodiscard]] units::Microseconds measured_pingpong(
      units::Bytes bytes, bool internode, index_t sample) const;

 private:
  const InstanceProfile* profile_;
};

/// Ground-truth and measured behaviour of a node's GPU accelerators.
/// Requires the profile to carry a GpuSpec.
class GpuSystem {
 public:
  explicit GpuSystem(const InstanceProfile& profile);

  /// Device memory bandwidth an LBM kernel actually sustains (hidden
  /// kernel efficiency applied) — the virtual cluster's ground truth.
  [[nodiscard]] units::MegabytesPerSec effective_bandwidth() const noexcept;

  /// One simulated device-STREAM measurement: near-peak HBM bandwidth
  /// with benchmark noise. This is what calibration sees — it does NOT
  /// include the kernel efficiency, so models overpredict GPU runs the
  /// same way they overpredict CPU runs.
  [[nodiscard]] units::MegabytesPerSec measured_bandwidth(
      index_t sample) const;

  /// Ground-truth host<->device transfer time for m bytes.
  [[nodiscard]] units::Microseconds transfer_time(units::Bytes bytes) const;

  /// One simulated PCIe bandwidth/latency measurement.
  [[nodiscard]] units::Microseconds measured_transfer(units::Bytes bytes,
                                                      index_t sample) const;

 private:
  const InstanceProfile* profile_;
};

/// Multiplicative run-level noise: Gaussian jitter plus a small diurnal
/// swing (cloud tenancy effects vary by time of day). Deterministic in
/// (instance, day, hour, slot).
class NoiseModel {
 public:
  /// Hashes the instance once: factor() runs once per attempt chunk.
  explicit NoiseModel(const InstanceProfile& profile)
      : profile_(&profile), instance_hash_(instance_hash(profile)) {}

  /// Noise factor (≈ 1.0) for a measurement at the given wall-clock slot.
  [[nodiscard]] real_t factor(index_t day, index_t hour, index_t slot) const;

 private:
  const InstanceProfile* profile_;
  std::uint64_t instance_hash_;
};

}  // namespace hemo::cluster
