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
/// arithmetic (body force + optional Smagorinsky LES) applied to every
/// non-inlet/outlet point. The LES branch is resolved at compile time so
/// the segmented bulk kernels instantiate a version with no runtime
/// branch at all. This is the single definition of the bulk arithmetic —
/// the bulk and boundary kernels of every binding inline it, which is
/// what keeps the reference and segmented paths bit-identical.
template <typename T, bool WithLes>
inline void update_interior_values(const T* g, T* out, T omega,
                                   const std::array<T, 3>& force_shift,
                                   T smagorinsky_cs2) {
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

  // Smagorinsky LES (enabled when Cs^2 > 0): augment the relaxation time
  // with an eddy viscosity proportional to the local strain magnitude,
  // estimated from the non-equilibrium momentum flux:
  //   tau_eff = (tau + sqrt(tau^2 + 18 sqrt(2) Cs^2 |Pi| / rho)) / 2 .
  // Stabilizes high-Reynolds flows; reduces exactly to BGK at Cs = 0.
  T omega_eff = omega;
  if constexpr (WithLes) {
    T pxx = T{0}, pyy = T{0}, pzz = T{0}, pxy = T{0}, pxz = T{0},
      pyz = T{0};
    for (index_t q = 0; q < kQ; ++q) {
      const T fneq = g[q] - equilibrium<T>(q, rho, fx, fy, fz);
      const auto& c = kD3Q19[static_cast<std::size_t>(q)];
      const T cx = static_cast<T>(c.dx), cy = static_cast<T>(c.dy),
              cz = static_cast<T>(c.dz);
      pxx += fneq * cx * cx;
      pyy += fneq * cy * cy;
      pzz += fneq * cz * cz;
      pxy += fneq * cx * cy;
      pxz += fneq * cx * cz;
      pyz += fneq * cy * cz;
    }
    const T pi_mag = std::sqrt(
        pxx * pxx + pyy * pyy + pzz * pzz +
        T{2} * (pxy * pxy + pxz * pxz + pyz * pyz));
    const T tau = T{1} / omega;
    const T tau_eff =
        (tau + std::sqrt(tau * tau + T{18} * static_cast<T>(1.41421356237) *
                                         smagorinsky_cs2 * pi_mag *
                                         inv_rho)) /
        T{2};
    omega_eff = T{1} / tau_eff;
  }

  for (index_t q = 0; q < kQ; ++q) {
    const T feq = equilibrium<T>(q, rho, fx, fy, fz);
    out[q] = bgk_collide(g[q], feq, omega_eff);
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
    const std::array<T, 3>& force_shift = {T{0}, T{0}, T{0}},
    T smagorinsky_cs2 = T{0}) {
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
  if (smagorinsky_cs2 > T{0}) {
    update_interior_values<T, true>(g, out, omega, force_shift,
                                    smagorinsky_cs2);
  } else {
    update_interior_values<T, false>(g, out, omega, force_shift,
                                     smagorinsky_cs2);
  }
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
                                   const std::array<T, 3>& force_shift,
                                   T smagorinsky_cs2) {
  if (pulse[0] != T{0}) {
    const T scale = pulse_scale<T>(pulse[0], pulse[1], timestep);
    for (auto& component : bc) component *= scale;
  }
  update_point_values<T>(type, g, out, omega, bc, force_shift,
                         smagorinsky_cs2);
}

}  // namespace hemo::lbm
