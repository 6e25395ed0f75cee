// Sparse D3Q19 BGK solver over a FluidMesh.
//
// Supports both propagation patterns of the paper's codes:
//  * AB — two arrays, pull-scheme fused stream/collide: the array always
//    holds post-collision values; each step gathers arrivals from the
//    previous array, collides, and writes the new array.
//  * AA — single array (Bailey et al.): the even step collides in place
//    writing each value into its opposite-direction slot; the odd step
//    gathers from neighbors' swapped slots and scatters to neighbors so the
//    array returns to natural order. Bounce-back folds into both steps.
//
// Two hot-path implementations share every per-point arithmetic operation
// (lbm/point_update.hpp) and therefore produce bit-identical state:
//  * KernelPath::kReference — one fused loop per step: each point pays a
//    19-wide neighbor-table gather and a type/pulse/LES branch.
//  * KernelPath::kSegmented (default) — the distribution arrays are held
//    in SegmentedMesh order (bulk-interior points first, boundary points
//    after). The bulk segment streams span-by-span with constant neighbor
//    offsets (direct indexing, no gather table) through a branch-free
//    inner loop with the LES branch resolved at compile time; only the
//    small boundary segment runs the general gather + type-switch path.
//    Public point indices remain the original mesh order — moments_at,
//    f_value, IO, observables, and the decomposition layer see no
//    difference. Every segmented range kernel (AB, AA even, AA odd; bulk
//    and boundary) is a free function over a Sweep, chosen once by
//    bind_sweep() together with the SIMD tile, backend and streaming-store
//    setting: runtime::ParallelSolver's ranks call the same binder and
//    sweep their own slot spaces through the very same definitions.
// The layout/propagation/path dispatch is hoisted out of step(): the
// segmented path runs one step function (seg_step) over the bound
// kernels, the reference path one member function pointer per parity.
//
// Boundary conditions follow HARVEY's setup in the paper: a Poiseuille
// velocity profile imposed at inlets (wet-node equilibrium with the locally
// arriving density) and a zero-pressure (rho = 1) equilibrium outlet.
// Walls are full bounce-back.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "geometry/generators.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/kernel_config.hpp"
#include "lbm/lattice.hpp"
#include "lbm/mesh.hpp"
#include "lbm/mesh_segments.hpp"
#include "lbm/simd.hpp"
#include "util/common.hpp"

namespace hemo::lbm {

/// Solver numerical parameters.
struct SolverParams {
  real_t tau = 0.8;  ///< BGK relaxation time (viscosity = (tau - 0.5) / 3)
  KernelConfig kernel;
  /// Uniform body force per fluid point (lattice units). Drives flow in
  /// periodic domains (validated against analytic Poiseuille flow).
  std::array<real_t, 3> body_force = {0.0, 0.0, 0.0};

  /// Smagorinsky constant for the LES eddy-viscosity model; 0 disables it
  /// (plain BGK). Typical values are 0.1 - 0.2 for high-Re hemodynamics.
  real_t smagorinsky_cs = 0.0;

  /// OpenMP threads for the step kernels and reductions; 0 takes the
  /// OpenMP default team size. All results are bit-stable across thread
  /// counts. (runtime::ParallelSolver ignores it: each rank is one thread
  /// calling the range kernels directly.)
  index_t num_threads = 0;
};

/// Offset of (row p, direction q) in a distribution array of `rows` rows.
[[nodiscard]] constexpr index_t dist_offset(Layout layout, index_t rows,
                                            index_t p, index_t q) noexcept {
  return layout == Layout::kAoS ? p * kQ + q : q * rows + p;
}

/// One segmented sweep over a slot space: reads `f`, writes `f2`, both
/// view->num_slots() rows in the kernel's layout. AB points them at its two
/// arrays; AA points both at its one array, which it updates in place.
/// Only owned positions [0, view->num_points()) are ever swept; the ghost
/// tail is read-only.
template <typename T>
struct Sweep {
  const SegmentedMesh* view = nullptr;
  const T* f = nullptr;
  T* f2 = nullptr;
  /// Inlet velocity and pulse {amplitude, period} per owned position.
  const std::array<T, 3>* bc_velocity = nullptr;
  const std::array<T, 2>* bc_pulse = nullptr;
  T omega = T{0};
  T cs2 = T{0};  ///< smagorinsky_cs^2
  std::array<T, 3> force_shift = {T{0}, T{0}, T{0}};  ///< tau * body_force
  index_t timestep = 0;
  /// SoA bulk tile kernel (normal or streaming-store variant; a caller
  /// that binds the latter must simd::store_fence() before publishing f2).
  simd::TileFn<T> tile = nullptr;
};

/// A range kernel: sweeps positions [lo, hi) of one segment of sweep.view.
template <typename T>
using SweepFn = void (*)(const Sweep<T>&, index_t lo, index_t hi);

/// The segmented kernels and sweep constants of one SolverParams, chosen
/// once by bind_sweep() for the serial solver and the threaded ranks alike.
template <typename T>
struct SweepBinding {
  /// Range kernels per parity: [0] runs the AB step or the AA even step,
  /// [1] the AA odd step (AB: the same kernels as [0]). `bulk` sweeps
  /// positions of [0, bulk_count()) span by span; `boundary` sweeps
  /// positions of [bulk_count(), num_points()) through the neighbor-table
  /// gather with bounce-back and the point-type dispatch. Null on the
  /// reference path.
  std::array<SweepFn<T>, 2> bulk{};
  std::array<SweepFn<T>, 2> boundary{};
  /// SoA bulk tile; null on the AoS and reference paths.
  simd::TileFn<T> tile = nullptr;
  /// The backend `tile` runs; kScalar off the segmented SoA path.
  Backend backend = Backend::kScalar;
  /// `tile` uses streaming stores: fence them with
  /// simd::store_fence(backend) before publishing a step's f2.
  bool nt_stores = false;
  T omega = T{0};
  T cs2 = T{0};
  std::array<T, 3> force_shift = {T{0}, T{0}, T{0}};

  /// A sweep of `view` under this binding's constants and tile.
  [[nodiscard]] Sweep<T> sweep(const SegmentedMesh& view, const T* f, T* f2,
                               const std::array<T, 3>* bc_velocity,
                               const std::array<T, 2>* bc_pulse,
                               index_t timestep) const {
    return {&view, f, f2, bc_velocity, bc_pulse, omega, cs2, force_shift,
            timestep, tile};
  }
};

/// Chooses the kernels of `params.kernel` for storage type T (the
/// precision is T's; kernel.precision is not read). `num_points` is the
/// whole mesh's point count: streaming stores are bound only for an AB
/// SoA sweep on a vector backend whose two arrays of that many points
/// exceed 64 MiB, where they dwarf the cache (below that the stores evict
/// lines the next step would hit). Nothing is allocated. Requires
/// tau > 0.5.
template <typename T>
[[nodiscard]] SweepBinding<T> bind_sweep(const SolverParams& params,
                                         index_t num_points);

/// The solver. T is the distribution storage type (float or double).
template <typename T>
class Solver {
 public:
  /// Builds the solver; `inlets` provide the Poiseuille profiles for
  /// kInlet points. The mesh must outlive the solver. params().kernel
  /// reports T's precision whatever `params.kernel.precision` says.
  Solver(const FluidMesh& mesh, const SolverParams& params,
         std::span<const geometry::InletSpec> inlets);

  /// Resets every point to rest equilibrium (rho = 1, u = 0). Pages of
  /// the distribution arrays are first-touched under the same static
  /// thread partition the step kernels use.
  void initialize();

  /// Advances one timestep. For AA the parity is tracked internally.
  void step();

  /// Advances n timesteps.
  void run(index_t n);

  [[nodiscard]] index_t timestep() const noexcept { return timestep_; }
  [[nodiscard]] const FluidMesh& mesh() const noexcept { return *mesh_; }
  [[nodiscard]] const SolverParams& params() const noexcept { return params_; }

  /// The segment-reordered view driving the kernels; null on the
  /// reference path.
  [[nodiscard]] const SegmentedMesh* segments() const noexcept {
    return seg_.get();
  }

  /// The SIMD backend the bulk kernels actually execute. Only the
  /// segmented SoA path runs intrinsic kernels; the reference and AoS
  /// paths always report kScalar (benchmark honesty: what is recorded is
  /// what ran, not what was requested).
  [[nodiscard]] Backend backend() const noexcept { return binding_.backend; }

  /// The OpenMP team size the kernels run with (resolved from
  /// SolverParams::num_threads at construction; 1 in builds without
  /// OpenMP).
  [[nodiscard]] index_t threads() const noexcept { return threads_; }

  /// True when the distribution array is in natural (direction-aligned)
  /// order; moments are only meaningful then. AB is always natural; AA is
  /// natural at even timesteps.
  [[nodiscard]] bool natural_order() const noexcept {
    return params_.kernel.propagation == Propagation::kAB ||
           timestep_ % 2 == 0;
  }

  /// Macroscopic moments at point p. Requires natural_order().
  [[nodiscard]] Moments<real_t> moments_at(index_t p) const;

  /// Total mass over the domain. Requires natural_order(). Parallel with
  /// a fixed-block ordered reduction: the result is bit-stable across
  /// thread counts.
  [[nodiscard]] real_t total_mass() const;

  /// Mean velocity magnitude over fluid points. Requires natural_order().
  /// Same fixed-block ordered reduction as total_mass().
  [[nodiscard]] real_t mean_speed() const;

  /// Direct read of one distribution value (tests only).
  [[nodiscard]] real_t f_value(index_t p, index_t q) const;

  /// Distribution state in canonical order — original mesh point indices
  /// under the active Layout — independent of the kernel path, so
  /// checkpoints written by one path restore bit-exactly into the other.
  [[nodiscard]] std::vector<T> export_state() const;

  /// Restores a state saved by export_state() (canonical order) and the
  /// timestep. The span length must equal num_points * kQ.
  void restore_state(std::span<const T> state, index_t timestep);

 private:
  template <Layout L>
  [[nodiscard]] index_t idx(index_t p, index_t q) const noexcept {
    return dist_offset(L, n_, p, q);
  }

  /// Internal storage position of original mesh point p.
  [[nodiscard]] index_t internal_pos(index_t p) const noexcept {
    return seg_ ? seg_->position_of(p) : p;
  }

  // Reference kernels: one fused loop over all points.
  template <Layout L>
  void step_ab();
  template <Layout L>
  void step_aa_even();
  template <Layout L>
  void step_aa_odd();

  /// One segmented step through binding_'s kernels of `parity` (0: AB or
  /// AA even, 1: AA odd): span-aligned bulk blocks per thread, then a
  /// static chunk of the boundary segment; AB then swaps its arrays.
  void seg_step(std::size_t parity);

  /// Computes the post-collision (or boundary) values for point p given its
  /// gathered arrivals g; writes them to out[0..18]. Reference path:
  /// p is an original mesh index.
  void update_point(index_t p, const T* g, T* out) const;

  const FluidMesh* mesh_;
  SolverParams params_;
  index_t n_ = 0;
  index_t timestep_ = 0;

  /// Segment-reordered view (segmented path only).
  std::unique_ptr<SegmentedMesh> seg_;

  /// Sweep constants, plus the segmented kernels (segmented path only).
  SweepBinding<T> binding_;

  using StepFn = void (Solver::*)();
  StepFn step_even_fn_ = nullptr;  ///< reference AB or AA even-parity kernel
  StepFn step_odd_fn_ = nullptr;   ///< reference AA odd-parity kernel

  /// Resolved OpenMP team size (>= 1).
  index_t threads_ = 1;

  /// Span-aligned bulk work blocks: block b covers internal positions
  /// [block_bounds_[b], block_bounds_[b+1]). Cut only at RLE span
  /// boundaries so the tile kernels always see whole spans (no artificial
  /// masked tails at partition seams), sized for L2 residency, and
  /// assigned to threads statically so the same thread streams the same
  /// pages every step (first-touch locality; initialize() mirrors the
  /// partition).
  std::vector<index_t> block_bounds_;

  std::vector<T> f_;   // main array (internal point order)
  std::vector<T> f2_;  // second array (AB only)

  // Per-point boundary targets in internal point order: for kInlet the
  // imposed velocity; unused otherwise. Stored densely for O(1) access in
  // the kernels.
  std::vector<std::array<T, 3>> bc_velocity_;
  // Per-point pulsatile {amplitude, period}; zero for steady inlets.
  std::vector<std::array<T, 2>> bc_pulse_;
};

/// Convenience: MFLUPS from points, steps, and elapsed seconds (Eq. 7).
[[nodiscard]] inline real_t mflups(index_t points, index_t steps,
                                   real_t seconds) {
  HEMO_REQUIRE(seconds > 0.0, "mflups needs positive elapsed time");
  return static_cast<real_t>(points) * static_cast<real_t>(steps) /
         (seconds * 1e6);
}

extern template class Solver<float>;
extern template class Solver<double>;

}  // namespace hemo::lbm
