// Threaded-rank parallel LBM execution with real halo messaging.
//
// Each partition task becomes a *rank*: a dedicated std::thread owning a
// private distribution array over its lbm::SegmentedMesh slot space
// (owned positions in segment order, then a ghost tail) that no other
// thread ever writes. Ranks exchange halos through mailboxes — one per
// directed halo channel, owned send buffer, epoch-stamped with an atomic
// sequence number — so communication is real message passing: the owner
// packs into the buffer and release-publishes the epoch, the receiver
// acquire-spins until the stamp arrives and unpacks into its ghost rows.
// No rank ever peeks into a neighbor's distribution array.
//
// A step overlaps bulk-interior compute with boundary communication
// (HARVEY's overlap scheme, Sec. II of the paper). Each update is a call
// of a range kernel that lbm::bind_sweep chose, the serial solver's own
// binder, over a position range of the rank's view:
//   1. pack + publish all outgoing channels        (t_comm: pack)
//   2. interior [0, frontier_begin): bulk spans,
//      then boundary points — no ghosts read       (t_mem)
//   3. await + unpack all incoming channels        (t_comm: wait + unpack)
//   4. frontier [frontier_begin, num_points):
//      boundary path — ghosts now fresh            (t_mem)
//   5. swap front/back arrays, barrier arrive
// Ranks run in lockstep: a std::barrier ends every step, and its
// completion step (running while every rank thread is quiescent) advances
// the shared timestep, flushes per-window timings into obs::, and applies
// dynamic rebalancing migrations — the only place shared topology is
// mutated, with the barrier providing the happens-before edges. Because
// the protocol is quiescence (barrier completion), not a mutex, TSA
// cannot check it; the control state below is deliberately lock-free and
// the full protocol is written out in DESIGN.md §13.
//
// Per-rank wall-clock t_mem / t_comm (pack, wait, unpack) are measured
// every step and exported through the obs layer; runtime::validation
// compares them against core::direct_task_terms on a one-node plan of the
// partition, with this host measured as a core::InstanceCalibration.
//
// The rank ensemble is the process's parallelism: a rank calls the range
// kernels directly, outside any OpenMP region, so it is exactly one busy
// thread (SolverParams::num_threads does not apply to ranks).
//
// Set-up runs on every core. harvey::build_halo_exchange builds the rank
// views, whose neighbor-row passes run under OpenMP; then
// build_runtime_structures() sizes every rank's f and f2 on the calling
// thread without writing them, and one helper std::jthread per rank
// first-touches them (rest state into f, zeros into f2, ghost tail
// included) before joining. Helpers only write into storage the caller
// allocated: a helper that allocated would get a glibc malloc arena of its
// own and raise the resident set (DESIGN.md §11). The same rebuild runs
// from apply_migration() inside the barrier completion step, where the
// helpers are joined before any rank thread is released.
//
// Dynamic rebalancing: when measured busy-time imbalance (max/mean) stays
// above threshold for `patience` windows, a contiguous canonical-order
// block migrates from the hottest rank to its coolest channel neighbor
// (decomp::migrate_block). Migration gathers the canonical state, rebuilds
// partition/topology/mailboxes, and scatters the state back — bit-identical
// to a run that never migrated, which the tier-1 tests assert exactly.
//
// Supported configuration: AB x {AoS, SoA} x double on the segmented
// kernel path (SoA ranks run the SIMD tile kernels of the configured
// backend). AA, float and KernelPath::kReference are rejected. Because a
// rank runs the kernels, tile and streaming-store choice the serial
// solver binds, export_state() is bit-identical to the serial
// lbm::Solver<double> for every rank count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "decomp/partition.hpp"
#include "geometry/generators.hpp"
#include "harvey/halo.hpp"
#include "lbm/mesh.hpp"
#include "lbm/solver.hpp"
#include "runtime/rebalance.hpp"
#include "util/common.hpp"
#include "util/uninit_vector.hpp"

namespace hemo::runtime {

/// Cumulative wall-clock phase timings of one rank (seconds). Written only
/// by the owning rank thread; read from the barrier completion step and
/// after run() returns.
struct RankTimings {
  index_t steps = 0;
  real_t pack_s = 0.0;
  real_t wait_s = 0.0;
  real_t unpack_s = 0.0;
  real_t mem_s = 0.0;

  [[nodiscard]] real_t comm_s() const noexcept {
    return pack_s + wait_s + unpack_s;
  }
  [[nodiscard]] real_t busy_s() const noexcept { return mem_s + comm_s(); }
};

/// Runtime configuration.
struct RuntimeOptions {
  RebalanceOptions rebalance;
  /// Label attached to exported metrics series (geometry name etc.).
  std::string workload = "run";
};

/// Threaded-rank solver over an explicit partition (one thread per task).
class ParallelSolver {
 public:
  /// The mesh must outlive the solver; the partition is copied (it evolves
  /// under dynamic rebalancing). `params.kernel` must be AB + double on the
  /// segmented path (either layout).
  ParallelSolver(const lbm::FluidMesh& mesh,
                 const decomp::Partition& partition,
                 const lbm::SolverParams& params,
                 std::span<const geometry::InletSpec> inlets,
                 RuntimeOptions options = {});
  ~ParallelSolver();

  ParallelSolver(const ParallelSolver&) = delete;
  ParallelSolver& operator=(const ParallelSolver&) = delete;

  /// Runs n lockstep timesteps on n_ranks() concurrent threads; returns
  /// when every rank has finished (threads are joined per call).
  void run(index_t n);

  [[nodiscard]] index_t timestep() const noexcept { return timestep_; }
  [[nodiscard]] index_t n_ranks() const noexcept {
    return static_cast<index_t>(states_.size());
  }

  /// Moments at a *global* point index, for comparison with lbm::Solver.
  [[nodiscard]] lbm::Moments<real_t> moments_at(index_t global_point) const;

  /// Total mass across all ranks.
  [[nodiscard]] real_t total_mass() const;

  /// Distribution state in canonical order (original mesh point indices,
  /// configured layout) — directly comparable to
  /// lbm::Solver<double>::export_state().
  [[nodiscard]] std::vector<double> export_state() const;

  /// Restores a canonical-order state and timestep.
  void restore_state(std::span<const double> state, index_t timestep);

  /// The current partition (reflects applied migrations).
  [[nodiscard]] const decomp::Partition& partition() const noexcept {
    return partition_;
  }

  /// Migrations applied so far (dynamic + requested).
  [[nodiscard]] index_t rebalance_count() const noexcept {
    return rebalance_count_;
  }

  /// Applies one migration immediately (between run() calls — the solver
  /// must be idle). Deterministic handle for tests and tooling; the same
  /// gather/rebuild/scatter path the dynamic trigger uses.
  void request_migration(std::int32_t from, std::int32_t to, index_t count);

  /// Cumulative per-rank phase timings (valid while idle).
  [[nodiscard]] std::span<const RankTimings> timings() const noexcept {
    return timings_;
  }

  [[nodiscard]] index_t channel_count() const noexcept {
    return topo_.channel_count();
  }
  [[nodiscard]] index_t ghost_count() const noexcept { return topo_.n_ghosts; }
  [[nodiscard]] real_t bytes_per_exchange() const {
    return topo_.bytes_per_exchange();
  }

 private:
  friend struct EpochCallback;

  /// One rank's private arrays: distributions over its view's slots
  /// (owned + ghosts) * kQ in the configured layout, and the inlet
  /// targets of its owned positions.
  struct RankState {
    UninitVector<double> f, f2;
    lbm::InletTables<double> bc;
  };

  /// One directed halo message: owner-packed buffer plus the epoch stamp
  /// the receiver spins on. Heap-allocated (atomics are immovable).
  /// The stamp is the runtime's one lock-free handshake: the owner packs
  /// `buffer` and release-stores seq = t + 1; the receiver acquire-spins
  /// until the stamp arrives, which makes the packed bytes visible
  /// (DESIGN.md §13 atomic protocol table).
  struct Mailbox {
    index_t channel = 0;  ///< index into topo_.channels
    std::vector<double> buffer;
    std::atomic<index_t> seq{0};  // atomic-ok(release-publish/acquire-spin)
  };

  /// (Re)builds topology, mailboxes, channel maps, and rank arrays from
  /// partition_; the front arrays start at rest equilibrium, written by
  /// one helper thread per rank.
  void build_runtime_structures();

  /// Canonical-order gather / scatter of all ranks' owned rows.
  [[nodiscard]] std::vector<double> gather_state() const;
  void scatter_state(std::span<const double> state);

  /// One rank's step t (phases 1-5 above, minus the barrier).
  void rank_step(std::size_t r, index_t t);

  /// Barrier completion body: advance the epoch, flush window metrics,
  /// run the rebalance controller. Runs while all rank threads are
  /// quiescent inside the barrier.
  void on_epoch() noexcept;

  /// Gather + migrate_block + rebuild + scatter. Caller must hold
  /// quiescence (completion step or idle).
  void apply_migration(const MigrationPlan& plan);

  /// Offset of (slot s, direction q) in an array of `rows` rows.
  [[nodiscard]] std::size_t at(index_t rows, index_t s, index_t q) const {
    return static_cast<std::size_t>(lbm::dist_offset(layout_, rows, s, q));
  }

  const lbm::FluidMesh* mesh_;
  std::vector<geometry::InletSpec> inlets_;
  decomp::Partition partition_;
  index_t timestep_ = 0;

  lbm::Layout layout_;
  /// The serial solver's AB kernels and sweep constants (lbm::bind_sweep).
  lbm::SweepBinding<double> binding_;

  harvey::HaloExchange topo_;
  std::vector<RankState> states_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::vector<index_t>> out_channels_;  ///< per rank
  std::vector<std::vector<index_t>> in_channels_;   ///< per rank
  std::vector<std::vector<std::int32_t>> neighbors_of_;  ///< per rank

  RuntimeOptions options_;
  RebalanceController controller_;
  std::vector<RankTimings> timings_;
  std::vector<real_t> window_start_busy_;  ///< busy_s() at window start
  index_t window_steps_ = 0;
  index_t rebalance_count_ = 0;
};

}  // namespace hemo::runtime
