// Shared per-point update helpers.
//
// Every kernel — the range kernels the serial solver and the runtime
// ranks share (reference and segmented bindings alike) and the SIMD
// tiles — performs exactly this arithmetic, in this order, so their
// results agree bit-for-bit.
#pragma once

#include <array>
#include <cmath>

#include "lbm/lattice.hpp"
#include "lbm/mesh.hpp"
#include "util/common.hpp"

namespace hemo::lbm {

/// Branch-free interior update: the exact relax-toward-equilibrium
/// arithmetic (BGK with body force) applied to every non-inlet/outlet
/// point. This is the single definition of the bulk arithmetic — the bulk
/// and boundary kernels of every binding inline it, which is what keeps
/// the reference and segmented paths bit-identical.
template <typename T>
inline void update_interior_values(const T* g, T* out, T omega,
                                   const std::array<T, 3>& force_shift) {
  T rho = T{0}, jx = T{0}, jy = T{0}, jz = T{0};
  for (index_t q = 0; q < kQ; ++q) {
    const T fq = g[q];
    const auto& c = kD3Q19[static_cast<std::size_t>(q)];
    rho += fq;
    jx += fq * static_cast<T>(c.dx);
    jy += fq * static_cast<T>(c.dy);
    jz += fq * static_cast<T>(c.dz);
  }
  const T inv_rho = T{1} / rho;
  const T ux = jx * inv_rho, uy = jy * inv_rho, uz = jz * inv_rho;

  // Body force via the velocity-shift (Shan-Chen) forcing: the
  // equilibrium is evaluated at u + tau F / rho, which adds F per unit
  // volume per step to the momentum while conserving mass exactly.
  const T fx = ux + force_shift[0] * inv_rho;
  const T fy = uy + force_shift[1] * inv_rho;
  const T fz = uz + force_shift[2] * inv_rho;

  for (index_t q = 0; q < kQ; ++q) {
    const T feq = equilibrium<T>(q, rho, fx, fy, fz);
    out[q] = bgk_collide(g[q], feq, omega);
  }
}

/// Computes the post-collision (or boundary) values for a point from its
/// gathered arrivals g[0..18]; writes out[0..18].
///  * kInlet: wet-node equilibrium at the reference density (rho = 1) and
///    the imposed boundary velocity. Using the *arriving* density instead
///    would self-cancel: with a solid wall behind the inlet, the local
///    density relaxes to exactly the value that makes the emitted
///    distributions match a quiescent fluid, and no flow develops.
///  * kOutlet: equilibrium at rho = 1 (zero gauge pressure) and the
///    arriving velocity.
///  * otherwise: BGK relaxation toward local equilibrium
///    (update_interior_values).
template <typename T>
inline void update_point_values(
    PointType type, const T* g, T* out, T omega,
    const std::array<T, 3>& bc_velocity,
    const std::array<T, 3>& force_shift) {
  if (type == PointType::kInlet) {
    for (index_t q = 0; q < kQ; ++q) {
      out[q] = equilibrium<T>(q, T{1}, bc_velocity[0], bc_velocity[1],
                              bc_velocity[2]);
    }
    return;
  }
  if (type == PointType::kOutlet) {
    T rho = T{0}, jx = T{0}, jy = T{0}, jz = T{0};
    for (index_t q = 0; q < kQ; ++q) {
      const T fq = g[q];
      const auto& c = kD3Q19[static_cast<std::size_t>(q)];
      rho += fq;
      jx += fq * static_cast<T>(c.dx);
      jy += fq * static_cast<T>(c.dy);
      jz += fq * static_cast<T>(c.dz);
    }
    const T inv_rho = T{1} / rho;
    const T ux = jx * inv_rho, uy = jy * inv_rho, uz = jz * inv_rho;
    for (index_t q = 0; q < kQ; ++q) {
      out[q] = equilibrium<T>(q, T{1}, ux, uy, uz);
    }
    return;
  }
  update_interior_values<T>(g, out, omega, force_shift);
}

/// Pulsatile inlet modulation factor: 1 + A sin(2 pi t / T).
template <typename T>
[[nodiscard]] inline T pulse_scale(T amplitude, T period,
                                   index_t timestep) noexcept {
  if (amplitude == T{0} || period <= T{0}) return T{1};
  constexpr T kTwoPi = static_cast<T>(6.283185307179586476925286766559);
  return T{1} + amplitude *
                    std::sin(kTwoPi * static_cast<T>(timestep) / period);
}

/// update_point_values with the point's inlet velocity `bc` modulated by
/// its pulse {amplitude, period} at `timestep`: the general (boundary
/// path) update of every kernel.
template <typename T>
inline void update_boundary_values(PointType type, const T* g, T* out,
                                   T omega, std::array<T, 3> bc,
                                   const std::array<T, 2>& pulse,
                                   index_t timestep,
                                   const std::array<T, 3>& force_shift) {
  if (pulse[0] != T{0}) {
    const T scale = pulse_scale<T>(pulse[0], pulse[1], timestep);
    for (auto& component : bc) component *= scale;
  }
  update_point_values<T>(type, g, out, omega, bc, force_shift);
}

}  // namespace hemo::lbm
