#include "lbm/solver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lbm/point_update.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace hemo::lbm {

namespace {

/// Calling thread's (id, team size); (0, 1) outside a parallel region or
/// in a build without OpenMP.
[[nodiscard]] inline std::pair<int, int> omp_ids() noexcept {
#ifdef _OPENMP
  return {omp_get_thread_num(), omp_get_num_threads()};
#else
  return {0, 1};
#endif
}

/// Contiguous range of [0, n) owned by thread tid of nt — the same
/// partition OpenMP's schedule(static) produces, shared by the first-touch
/// initialization and the step kernels so pages stay local to the thread
/// that streams them.
[[nodiscard]] inline std::pair<index_t, index_t> static_chunk(
    index_t n, int tid, int nt) noexcept {
  const index_t threads = static_cast<index_t>(nt);
  const index_t chunk = (n + threads - 1) / threads;
  const index_t lo = std::min(n, chunk * static_cast<index_t>(tid));
  return {lo, std::min(n, lo + chunk)};
}

}  // namespace

template <typename T>
Solver<T>::Solver(const FluidMesh& mesh, const SolverParams& params,
                  std::span<const geometry::InletSpec> inlets)
    : mesh_(&mesh), params_(params), n_(mesh.num_points()) {
  binding_ = bind_sweep<T>(params_, n_);
  params_.kernel.precision =
      sizeof(T) == sizeof(float) ? Precision::kSingle : Precision::kDouble;
  HEMO_REQUIRE(n_ > 0, "empty mesh");
  HEMO_REQUIRE(params_.num_threads >= 0, "negative num_threads");
#ifdef _OPENMP
  threads_ = params_.num_threads > 0
                 ? params_.num_threads
                 : static_cast<index_t>(omp_get_max_threads());
#else
  threads_ = 1;
#endif

  if (params_.kernel.path == KernelPath::kSegmented) {
    seg_ = std::make_unique<SegmentedMesh>(SegmentedMesh::build(mesh));
    // Span-aligned bulk blocks: cut only at RLE span ends so the tile
    // kernels always see whole spans (no masked tails at partition
    // seams), sized so a thread's per-block working set stays
    // cache-resident while still yielding several blocks per thread for
    // an even static split.
    const index_t bulk = seg_->bulk_count();
    const index_t target = std::clamp(bulk / (threads_ * 8), index_t{512},
                                      index_t{4096});
    block_bounds_.push_back(0);
    index_t in_block = 0;
    for (const auto& span : seg_->spans()) {
      in_block += span.length;
      if (in_block >= target) {
        block_bounds_.push_back(span.begin + span.length);
        in_block = 0;
      }
    }
    if (block_bounds_.back() != bulk) block_bounds_.push_back(bulk);
  } else {
    const bool aos = params_.kernel.layout == Layout::kAoS;
    if (params_.kernel.propagation == Propagation::kAB) {
      step_even_fn_ = aos ? &Solver::step_ab<Layout::kAoS>
                          : &Solver::step_ab<Layout::kSoA>;
      step_odd_fn_ = step_even_fn_;
    } else {
      step_even_fn_ = aos ? &Solver::step_aa_even<Layout::kAoS>
                          : &Solver::step_aa_even<Layout::kSoA>;
      step_odd_fn_ = aos ? &Solver::step_aa_odd<Layout::kAoS>
                         : &Solver::step_aa_odd<Layout::kSoA>;
    }
  }

  f_.resize(static_cast<std::size_t>(n_ * kQ));
  if (params_.kernel.propagation == Propagation::kAB) {
    f2_.resize(static_cast<std::size_t>(n_ * kQ));
  }

  // Precompute inlet velocity targets from the Poiseuille profiles, then
  // permute them into internal point order so the boundary kernels index
  // them directly.
  auto bc_velocity = inlet_velocities<T>(mesh, inlets);
  auto bc_pulse = inlet_pulse_params<T>(mesh, inlets);
  if (seg_) {
    bc_velocity_.resize(bc_velocity.size());
    bc_pulse_.resize(bc_pulse.size());
    for (index_t i = 0; i < n_; ++i) {
      const auto p = static_cast<std::size_t>(seg_->point_at(i));
      bc_velocity_[static_cast<std::size_t>(i)] = bc_velocity[p];
      bc_pulse_[static_cast<std::size_t>(i)] = bc_pulse[p];
    }
  } else {
    bc_velocity_ = std::move(bc_velocity);
    bc_pulse_ = std::move(bc_pulse);
  }
  initialize();
}

template <typename T>
void Solver<T>::initialize() {
  const Layout layout = params_.kernel.layout;
  // Rest equilibrium is point-independent, so the only thing the loop
  // structure decides is which thread first-touches which pages; mirror
  // the step kernels' partition (bulk region and boundary region each
  // statically chunked on the segmented path, one static loop on the
  // reference path).
  const auto init_position = [&](index_t i) {
    for (index_t q = 0; q < kQ; ++q) {
      const T feq = equilibrium<T>(q, T{1}, T{0}, T{0}, T{0});
      const index_t slot = dist_offset(layout, n_, i, q);
      f_[static_cast<std::size_t>(slot)] = feq;
      if (!f2_.empty()) f2_[static_cast<std::size_t>(slot)] = feq;
    }
  };
  if (seg_) {
    const index_t bulk = seg_->bulk_count();
    const auto n_blocks = static_cast<index_t>(block_bounds_.size()) - 1;
#ifdef _OPENMP
#pragma omp parallel num_threads(static_cast<int>(threads_))
#endif
    {
      const auto [tid, nt] = omp_ids();
      const auto [b0, b1] = static_chunk(n_blocks, tid, nt);
      for (index_t b = b0; b < b1; ++b) {
        const index_t lo = block_bounds_[static_cast<std::size_t>(b)];
        const index_t hi = block_bounds_[static_cast<std::size_t>(b + 1)];
        for (index_t i = lo; i < hi; ++i) init_position(i);
      }
      const auto [blo, bhi] = static_chunk(n_ - bulk, tid, nt);
      for (index_t i = bulk + blo; i < bulk + bhi; ++i) init_position(i);
    }
  } else {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
    for (index_t i = 0; i < n_; ++i) init_position(i);
  }
  timestep_ = 0;
}

template <typename T>
void Solver<T>::update_point(index_t p, const T* g, T* out) const {
  update_boundary_values<T>(mesh_->type(p), g, out, binding_.omega,
                            bc_velocity_[static_cast<std::size_t>(p)],
                            bc_pulse_[static_cast<std::size_t>(p)],
                            timestep_, binding_.force_shift, binding_.cs2);
}

// Parallelization notes: in the AB pull kernel every point writes only its
// own row of the back buffer; in the AA even kernel every point reads and
// writes only its own row; in the AA odd kernel every array location is
// read and written by exactly one point (the reader is the writer — see
// the derivation in tests/test_solver.cpp and DESIGN.md), so all three
// loops are race-free under OpenMP with per-iteration locals — and, for
// the same reason, splitting a step into a bulk pass plus a boundary pass
// (segmented path) cannot change the result: no point's gather reads a
// location another point writes within the same step.

template <typename T>
template <Layout L>
void Solver<T>::step_ab() {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t p = 0; p < n_; ++p) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = mesh_->neighbor(p, opposite(q));
      g[q] = nb != kSolidLink
                 ? f_[static_cast<std::size_t>(idx<L>(nb, q))]
                 : f_[static_cast<std::size_t>(idx<L>(p, opposite(q)))];
    }
    update_point(p, g, out);
    for (index_t q = 0; q < kQ; ++q) {
      f2_[static_cast<std::size_t>(idx<L>(p, q))] = out[q];
    }
  }
  f_.swap(f2_);
}

template <typename T>
template <Layout L>
void Solver<T>::step_aa_even() {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t p = 0; p < n_; ++p) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      g[q] = f_[static_cast<std::size_t>(idx<L>(p, q))];
    }
    update_point(p, g, out);
    for (index_t q = 0; q < kQ; ++q) {
      f_[static_cast<std::size_t>(idx<L>(p, opposite(q)))] = out[q];
    }
  }
}

template <typename T>
template <Layout L>
void Solver<T>::step_aa_odd() {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t p = 0; p < n_; ++p) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t m = mesh_->neighbor(p, opposite(q));
      g[q] = m != kSolidLink
                 ? f_[static_cast<std::size_t>(idx<L>(m, opposite(q)))]
                 : f_[static_cast<std::size_t>(idx<L>(p, q))];
    }
    update_point(p, g, out);
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = mesh_->neighbor(p, q);
      if (nb != kSolidLink) {
        f_[static_cast<std::size_t>(idx<L>(nb, q))] = out[q];
      } else {
        f_[static_cast<std::size_t>(idx<L>(p, opposite(q)))] = out[q];
      }
    }
  }
}

// ---- Segmented path ------------------------------------------------------
//
// The range kernels are free functions over a Sweep, so the serial
// solver and runtime::ParallelSolver's ranks run the same definitions.
// Bulk loops iterate RLE spans: every neighbor is position + constant
// offset, so the inner loop is a direct-indexed stream with no neighbor
// table, no solid-link test, no boundary-type switch, and (via the WithLes
// template parameter) no LES branch. Boundary loops run the general
// gather over the view's neighbor table. The AA kernels update the one
// array in place through sweep.f2 (== sweep.f).

namespace {

/// First span of `spans` that ends after position lo.
[[nodiscard]] std::vector<SegmentSpan>::const_iterator first_span(
    const std::vector<SegmentSpan>& spans, index_t lo) {
  return std::upper_bound(
      spans.begin(), spans.end(), lo,
      [](index_t v, const SegmentSpan& s) { return v < s.begin + s.length; });
}

template <typename T, Layout L, bool WithLes>
void seg_bulk_ab(const Sweep<T>& sweep, index_t lo, index_t hi) {
  const auto& spans = sweep.view->spans();
  const index_t rows = sweep.view->num_slots();
  const T* const f = sweep.f;
  T* const f2 = sweep.f2;
  const T omega = sweep.omega;
  const T cs2 = sweep.cs2;
  const std::array<T, 3> force_shift = sweep.force_shift;
  for (auto it = first_span(spans, lo); it != spans.end() && it->begin < hi;
       ++it) {
    const index_t s0 = std::max(lo, it->begin);
    const index_t s1 = std::min(hi, it->begin + it->length);
    const auto& off = it->offsets;
    if constexpr (L == Layout::kSoA) {
      // Every per-direction stream is contiguous across the span, so the
      // whole span goes to the backend tile kernel in one call (the LES
      // mode is baked into the bound function pointer).
      const T* src[kQ];
      T* dst[kQ];
      for (index_t q = 0; q < kQ; ++q) {
        const index_t from =
            s0 + static_cast<index_t>(
                     off[static_cast<std::size_t>(opposite(q))]);
        src[q] = f + static_cast<std::size_t>(dist_offset(L, rows, from, q));
        dst[q] = f2 + static_cast<std::size_t>(dist_offset(L, rows, s0, q));
      }
      sweep.tile(src, dst, s1 - s0, omega, force_shift, cs2);
      continue;
    }
#ifdef _OPENMP
#pragma omp simd
#endif
    for (index_t i = s0; i < s1; ++i) {
      T g[kQ], out[kQ];
      for (index_t q = 0; q < kQ; ++q) {
        const index_t src =
            i + static_cast<index_t>(
                    off[static_cast<std::size_t>(opposite(q))]);
        g[q] = f[static_cast<std::size_t>(dist_offset(L, rows, src, q))];
      }
      update_interior_values<T, WithLes>(g, out, omega, force_shift, cs2);
      for (index_t q = 0; q < kQ; ++q) {
        f2[static_cast<std::size_t>(dist_offset(L, rows, i, q))] = out[q];
      }
    }
  }
}

template <typename T, Layout L, bool WithLes>
void seg_bulk_aa_even(const Sweep<T>& sweep, index_t lo, index_t hi) {
  // The even AA step touches only the point's own row — no neighbor
  // indexing at all, so spans are irrelevant here.
  const index_t rows = sweep.view->num_slots();
  T* const f = sweep.f2;
  const T omega = sweep.omega;
  const T cs2 = sweep.cs2;
  const std::array<T, 3> force_shift = sweep.force_shift;
  if constexpr (L == Layout::kSoA) {
    // In-place safe: each vector group loads all 19 directions before it
    // stores any, and the even step's reader of every location is its
    // writer. Never NT — the data is re-read next step.
    const T* src[kQ];
    T* dst[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      src[q] = f + static_cast<std::size_t>(dist_offset(L, rows, lo, q));
      dst[q] = f + static_cast<std::size_t>(
                       dist_offset(L, rows, lo, opposite(q)));
    }
    sweep.tile(src, dst, hi - lo, omega, force_shift, cs2);
    return;
  }
#ifdef _OPENMP
#pragma omp simd
#endif
  for (index_t i = lo; i < hi; ++i) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      g[q] = f[static_cast<std::size_t>(dist_offset(L, rows, i, q))];
    }
    update_interior_values<T, WithLes>(g, out, omega, force_shift, cs2);
    for (index_t q = 0; q < kQ; ++q) {
      f[static_cast<std::size_t>(dist_offset(L, rows, i, opposite(q)))] =
          out[q];
    }
  }
}

template <typename T, Layout L, bool WithLes>
void seg_bulk_aa_odd(const Sweep<T>& sweep, index_t lo, index_t hi) {
  const auto& spans = sweep.view->spans();
  const index_t rows = sweep.view->num_slots();
  T* const f = sweep.f2;
  const T omega = sweep.omega;
  const T cs2 = sweep.cs2;
  const std::array<T, 3> force_shift = sweep.force_shift;
  for (auto it = first_span(spans, lo); it != spans.end() && it->begin < hi;
       ++it) {
    const index_t s0 = std::max(lo, it->begin);
    const index_t s1 = std::min(hi, it->begin + it->length);
    const auto& off = it->offsets;
    if constexpr (L == Layout::kSoA) {
      // In-place safe: group-at-a-time load-all/store-all plus the
      // reader == writer property of the odd step (see the
      // parallelization notes above). Never NT — in-place sweep.
      const T* src[kQ];
      T* dst[kQ];
      for (index_t q = 0; q < kQ; ++q) {
        const index_t opp = opposite(q);
        const index_t from =
            s0 + static_cast<index_t>(off[static_cast<std::size_t>(opp)]);
        const index_t to =
            s0 + static_cast<index_t>(off[static_cast<std::size_t>(q)]);
        src[q] = f + static_cast<std::size_t>(dist_offset(L, rows, from, opp));
        dst[q] = f + static_cast<std::size_t>(dist_offset(L, rows, to, q));
      }
      sweep.tile(src, dst, s1 - s0, omega, force_shift, cs2);
      continue;
    }
#ifdef _OPENMP
#pragma omp simd
#endif
    for (index_t i = s0; i < s1; ++i) {
      T g[kQ], out[kQ];
      for (index_t q = 0; q < kQ; ++q) {
        const index_t opp = opposite(q);
        const index_t m =
            i + static_cast<index_t>(off[static_cast<std::size_t>(opp)]);
        g[q] = f[static_cast<std::size_t>(dist_offset(L, rows, m, opp))];
      }
      update_interior_values<T, WithLes>(g, out, omega, force_shift, cs2);
      for (index_t q = 0; q < kQ; ++q) {
        const index_t nb =
            i + static_cast<index_t>(off[static_cast<std::size_t>(q)]);
        f[static_cast<std::size_t>(dist_offset(L, rows, nb, q))] = out[q];
      }
    }
  }
}

template <typename T, Layout L>
void seg_boundary_ab(const Sweep<T>& sweep, index_t lo, index_t hi) {
  const SegmentedMesh& view = *sweep.view;
  const index_t rows = view.num_slots();
  for (index_t i = lo; i < hi; ++i) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = view.neighbor(i, opposite(q));
      g[q] = sweep.f[static_cast<std::size_t>(
          nb != kSolidLink ? dist_offset(L, rows, nb, q)
                           : dist_offset(L, rows, i, opposite(q)))];
    }
    update_boundary_values<T>(view.type(i), g, out, sweep.omega,
                              sweep.bc_velocity[i], sweep.bc_pulse[i],
                              sweep.timestep, sweep.force_shift, sweep.cs2);
    for (index_t q = 0; q < kQ; ++q) {
      sweep.f2[static_cast<std::size_t>(dist_offset(L, rows, i, q))] =
          out[q];
    }
  }
}

template <typename T, Layout L>
void seg_boundary_aa_even(const Sweep<T>& sweep, index_t lo, index_t hi) {
  const SegmentedMesh& view = *sweep.view;
  const index_t rows = view.num_slots();
  T* const f = sweep.f2;
  for (index_t i = lo; i < hi; ++i) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      g[q] = f[static_cast<std::size_t>(dist_offset(L, rows, i, q))];
    }
    update_boundary_values<T>(view.type(i), g, out, sweep.omega,
                              sweep.bc_velocity[i], sweep.bc_pulse[i],
                              sweep.timestep, sweep.force_shift, sweep.cs2);
    for (index_t q = 0; q < kQ; ++q) {
      f[static_cast<std::size_t>(dist_offset(L, rows, i, opposite(q)))] =
          out[q];
    }
  }
}

template <typename T, Layout L>
void seg_boundary_aa_odd(const Sweep<T>& sweep, index_t lo, index_t hi) {
  const SegmentedMesh& view = *sweep.view;
  const index_t rows = view.num_slots();
  T* const f = sweep.f2;
  for (index_t i = lo; i < hi; ++i) {
    T g[kQ], out[kQ];
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t m = view.neighbor(i, opposite(q));
      g[q] = f[static_cast<std::size_t>(
          m != kSolidLink ? dist_offset(L, rows, m, opposite(q))
                          : dist_offset(L, rows, i, q))];
    }
    update_boundary_values<T>(view.type(i), g, out, sweep.omega,
                              sweep.bc_velocity[i], sweep.bc_pulse[i],
                              sweep.timestep, sweep.force_shift, sweep.cs2);
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = view.neighbor(i, q);
      f[static_cast<std::size_t>(
          nb != kSolidLink ? dist_offset(L, rows, nb, q)
                           : dist_offset(L, rows, i, opposite(q)))] = out[q];
    }
  }
}

}  // namespace

template <typename T>
SweepBinding<T> bind_sweep(const SolverParams& params, index_t num_points) {
  HEMO_REQUIRE(params.tau > 0.5, "tau must exceed 0.5 for stability");
  SweepBinding<T> b;
  b.omega = static_cast<T>(1.0 / params.tau);
  b.cs2 = static_cast<T>(params.smagorinsky_cs * params.smagorinsky_cs);
  for (std::size_t d = 0; d < 3; ++d) {
    b.force_shift[d] = static_cast<T>(params.tau * params.body_force[d]);
  }
  const KernelConfig& kernel = params.kernel;
  if (kernel.path == KernelPath::kReference) return b;

  const bool ab = kernel.propagation == Propagation::kAB;
  const bool les = b.cs2 > T{0};
  const auto bind = [&]<Layout L, bool WithLes>() {
    if (ab) {
      b.bulk = {&seg_bulk_ab<T, L, WithLes>, &seg_bulk_ab<T, L, WithLes>};
      b.boundary = {&seg_boundary_ab<T, L>, &seg_boundary_ab<T, L>};
    } else {
      b.bulk = {&seg_bulk_aa_even<T, L, WithLes>,
                &seg_bulk_aa_odd<T, L, WithLes>};
      b.boundary = {&seg_boundary_aa_even<T, L>, &seg_boundary_aa_odd<T, L>};
    }
  };
  if (kernel.layout == Layout::kAoS) {
    // AoS interleaves the 19 directions per point, so there are no
    // unit-stride streams for a vector tile: the backend stays kScalar.
    if (les) bind.template operator()<Layout::kAoS, true>();
    else bind.template operator()<Layout::kAoS, false>();
    return b;
  }
  if (les) bind.template operator()<Layout::kSoA, true>();
  else bind.template operator()<Layout::kSoA, false>();

  b.backend = simd::resolve_backend(kernel.backend);
  // Streaming stores suit only AB's write-only back array: the AA sweeps
  // re-read in place what they write.
  const auto ab_bytes =
      static_cast<std::size_t>(num_points) * kQ * sizeof(T) * 2;
  b.nt_stores = ab && b.backend != Backend::kScalar &&
                ab_bytes > (std::size_t{64} << 20);
  b.tile = simd::tile_kernel<T>(b.backend, les, b.nt_stores);
  return b;
}

// One segmented step: the bulk segment is walked block-by-block (span-aligned
// block_bounds_, contiguous block ranges per thread — the exact partition
// initialize() first-touched), the boundary segment by a static chunk. No
// barrier between the two passes: within a step no point's gather reads a
// location another point writes (see the parallelization notes above).
template <typename T>
void Solver<T>::seg_step(std::size_t parity) {
  const index_t bulk = seg_->bulk_count();
  const auto n_blocks = static_cast<index_t>(block_bounds_.size()) - 1;
  const bool ab = !f2_.empty();
  const Sweep<T> sweep =
      binding_.sweep(*seg_, f_.data(), ab ? f2_.data() : f_.data(),
                     bc_velocity_.data(), bc_pulse_.data(), timestep_);
  const SweepFn<T> bulk_fn = binding_.bulk[parity];
  const SweepFn<T> boundary_fn = binding_.boundary[parity];
#ifdef _OPENMP
#pragma omp parallel num_threads(static_cast<int>(threads_))
#endif
  {
    const auto [tid, nt] = omp_ids();
    const auto [b0, b1] = static_chunk(n_blocks, tid, nt);
    for (index_t b = b0; b < b1; ++b) {
      bulk_fn(sweep, block_bounds_[static_cast<std::size_t>(b)],
              block_bounds_[static_cast<std::size_t>(b + 1)]);
    }
    // Streaming stores are weakly ordered: fence them (per thread) ahead
    // of the implicit barrier that publishes this step's back array.
    if (binding_.nt_stores) simd::store_fence(binding_.backend);
    const auto [blo, bhi] = static_chunk(n_ - bulk, tid, nt);
    boundary_fn(sweep, bulk + blo, bulk + bhi);
  }
  if (ab) f_.swap(f2_);
}

template <typename T>
void Solver<T>::step() {
  // The layout/propagation/path dispatch is bound once at construction;
  // a step runs the parity-selected kernels.
  const bool ab = params_.kernel.propagation == Propagation::kAB;
  const bool even = ab || timestep_ % 2 == 0;
  const char* phase = ab ? "ab_pull" : (even ? "aa_even" : "aa_odd");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const bool timed = metrics.enabled();
  real_t seconds = 0.0;
  {
    const obs::Phase scope(phase, timed ? &seconds : nullptr);
    if (seg_) {
      seg_step(even ? 0 : 1);
    } else {
      (this->*(even ? step_even_fn_ : step_odd_fn_))();
    }
  }
  if (timed) {
    metrics.observe(
        "lbm_step_seconds", seconds,
        {{"phase", phase},
         {"layout", params_.kernel.layout == Layout::kAoS ? "aos" : "soa"},
         {"path", to_string(params_.kernel.path)},
         {"precision",
          params_.kernel.precision == Precision::kSingle ? "f32" : "f64"}});
  }
  ++timestep_;
}

template <typename T>
void Solver<T>::run(index_t n) {
  HEMO_REQUIRE(n >= 0, "negative step count");
  for (index_t i = 0; i < n; ++i) step();
}

template <typename T>
Moments<real_t> Solver<T>::moments_at(index_t p) const {
  HEMO_REQUIRE(p >= 0 && p < n_, "point index out of range");
  HEMO_REQUIRE(natural_order(),
               "moments require natural distribution order (AA: even step)");
  std::array<T, kQ> g;
  const index_t i = internal_pos(p);
  for (index_t q = 0; q < kQ; ++q) {
    const index_t slot = dist_offset(params_.kernel.layout, n_, i, q);
    g[static_cast<std::size_t>(q)] = f_[static_cast<std::size_t>(slot)];
  }
  const Moments<T> m = moments<T>(std::span<const T, kQ>(g));
  return Moments<real_t>{static_cast<real_t>(m.rho),
                         static_cast<real_t>(m.ux),
                         static_cast<real_t>(m.uy),
                         static_cast<real_t>(m.uz)};
}

template <typename T>
real_t Solver<T>::total_mass() const {
  HEMO_REQUIRE(natural_order(), "total_mass requires natural order");
  // Fixed-size blocks summed in parallel, combined serially in block
  // order: the association is a function of the array length only, so the
  // result is bit-stable across thread counts.
  constexpr index_t kBlock = 1 << 14;
  const auto total = static_cast<index_t>(f_.size());
  const index_t n_blocks = (total + kBlock - 1) / kBlock;
  std::vector<real_t> partial(static_cast<std::size_t>(n_blocks), 0.0);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t b = 0; b < n_blocks; ++b) {
    const index_t lo = b * kBlock;
    const index_t hi = std::min(total, lo + kBlock);
    real_t acc = 0.0;
    for (index_t k = lo; k < hi; ++k) {
      acc += static_cast<real_t>(f_[static_cast<std::size_t>(k)]);
    }
    partial[static_cast<std::size_t>(b)] = acc;
  }
  real_t mass = 0.0;
  for (real_t v : partial) mass += v;
  return mass;
}

template <typename T>
real_t Solver<T>::mean_speed() const {
  HEMO_REQUIRE(natural_order(), "mean_speed requires natural order");
  // Same fixed-block ordered reduction as total_mass, over points.
  constexpr index_t kBlock = 1 << 12;
  const index_t n_blocks = (n_ + kBlock - 1) / kBlock;
  std::vector<real_t> partial(static_cast<std::size_t>(n_blocks), 0.0);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    num_threads(static_cast<int>(threads_))
#endif
  for (index_t b = 0; b < n_blocks; ++b) {
    const index_t lo = b * kBlock;
    const index_t hi = std::min(n_, lo + kBlock);
    real_t acc = 0.0;
    for (index_t p = lo; p < hi; ++p) {
      const auto m = moments_at(p);
      acc += std::sqrt(m.ux * m.ux + m.uy * m.uy + m.uz * m.uz);
    }
    partial[static_cast<std::size_t>(b)] = acc;
  }
  real_t sum = 0.0;
  for (real_t v : partial) sum += v;
  return sum / static_cast<real_t>(n_);
}

template <typename T>
std::vector<T> Solver<T>::export_state() const {
  std::vector<T> state(f_.size());
  if (!seg_) {
    std::copy(f_.begin(), f_.end(), state.begin());
    return state;
  }
  const Layout layout = params_.kernel.layout;
  for (index_t p = 0; p < n_; ++p) {
    const index_t i = seg_->position_of(p);
    for (index_t q = 0; q < kQ; ++q) {
      const index_t dst = dist_offset(layout, n_, p, q);
      const index_t src = dist_offset(layout, n_, i, q);
      state[static_cast<std::size_t>(dst)] =
          f_[static_cast<std::size_t>(src)];
    }
  }
  return state;
}

template <typename T>
void Solver<T>::restore_state(std::span<const T> state, index_t timestep) {
  HEMO_REQUIRE(state.size() == f_.size(),
               "restore_state: state size mismatch");
  HEMO_REQUIRE(timestep >= 0, "restore_state: negative timestep");
  if (!seg_) {
    std::copy(state.begin(), state.end(), f_.begin());
  } else {
    const Layout layout = params_.kernel.layout;
    for (index_t p = 0; p < n_; ++p) {
      const index_t i = seg_->position_of(p);
      for (index_t q = 0; q < kQ; ++q) {
        const index_t src = dist_offset(layout, n_, p, q);
        const index_t dst = dist_offset(layout, n_, i, q);
        f_[static_cast<std::size_t>(dst)] =
            state[static_cast<std::size_t>(src)];
      }
    }
  }
  timestep_ = timestep;
}

template <typename T>
real_t Solver<T>::f_value(index_t p, index_t q) const {
  HEMO_REQUIRE(p >= 0 && p < n_ && q >= 0 && q < kQ,
               "f_value index out of range");
  const index_t i = internal_pos(p);
  const index_t slot = dist_offset(params_.kernel.layout, n_, i, q);
  return static_cast<real_t>(f_[static_cast<std::size_t>(slot)]);
}

template class Solver<float>;
template class Solver<double>;

template SweepBinding<float> bind_sweep<float>(const SolverParams&,
                                               index_t);
template SweepBinding<double> bind_sweep<double>(const SolverParams&,
                                                 index_t);

}  // namespace hemo::lbm
