// Parametric vessel geometry generators.
//
// The paper evaluates three increasingly complex geometries (its Fig. 2):
//   (A) an idealized cylindrical vessel — easily divided for parallelism but
//       communication-heavy (high bulk:wall ratio, large cut surfaces);
//   (B) an aorta — typical communication and load balancing;
//   (C) a cerebral vasculature — low communication, many wall points.
// The originals come from the Vascular Model Repository, which we do not
// have; these generators build synthetic voxel equivalents that preserve the
// properties the experiments depend on: bulk/wall point ratio, cross-section
// size (halo surface area), and load-balance difficulty. See DESIGN.md §2.
#pragma once

#include <string>
#include <vector>

#include "geometry/voxel_grid.hpp"
#include "util/common.hpp"

namespace hemo::geometry {

/// A point in continuous voxel coordinates, used for centerlines.
struct Point3 {
  real_t x = 0.0;
  real_t y = 0.0;
  real_t z = 0.0;
};

/// One inlet: a disc of fluid voxels on which a Poiseuille velocity profile
/// is imposed.
struct InletSpec {
  Point3 center;            ///< disc center in voxel coordinates
  int axis = 2;             ///< flow axis: 0 = x, 1 = y, 2 = z
  int direction = +1;       ///< +1 flows toward +axis, -1 toward -axis
  real_t radius = 0.0;      ///< disc radius in voxels
  real_t peak_velocity = 0.05;  ///< centerline velocity in lattice units

  /// Pulsatile modulation: u(t) = u * (1 + amplitude * sin(2 pi t / T)).
  /// amplitude = 0 gives the steady profile used in the paper's study;
  /// nonzero values model cardiac-cycle inflow.
  real_t pulse_amplitude = 0.0;
  real_t pulse_period = 0.0;  ///< period in timesteps (ignored if amp = 0)
};

/// A named geometry: classified voxel grid plus inlet descriptors.
struct Geometry {
  std::string name;
  VoxelGrid grid;
  std::vector<InletSpec> inlets;
};

/// Carves a capsule (cylinder with hemispherical caps) of fluid between two
/// centerline points. Marks carved voxels kBulk; callers classify later.
void carve_capsule(VoxelGrid& grid, const Point3& p0, const Point3& p1,
                   real_t radius);

/// Parameters for the idealized cylindrical vessel.
struct CylinderParams {
  index_t radius = 12;   ///< lumen radius in voxels
  index_t length = 96;   ///< axial length in voxels
  real_t peak_velocity = 0.05;
};

/// Straight cylinder along z; inlet disc at z = 0, outlet disc at the far
/// end. This is also the exact geometry used by the proxy app.
[[nodiscard]] Geometry make_cylinder(const CylinderParams& params = {});

/// Axially periodic cylinder with no inlet/outlet, for body-force-driven
/// flows. Pair with lbm::MeshOptions{.periodic_z = true}.
[[nodiscard]] Geometry make_periodic_cylinder(
    const CylinderParams& params = {});

/// Parameters for the synthetic aorta.
struct AortaParams {
  real_t vessel_radius = 9.0;   ///< main lumen radius in voxels
  real_t arch_radius = 28.0;    ///< aortic arch bend radius in voxels
  index_t height = 110;         ///< domain height (z) in voxels
  real_t branch_radius = 3.5;   ///< supra-aortic branch radius
  real_t peak_velocity = 0.05;
};

/// Candy-cane aorta: ascending limb, semicircular arch, longer descending
/// limb, plus three supra-aortic branches off the arch. Inlet at the
/// ascending root; outlets at the descending end and branch tops.
[[nodiscard]] Geometry make_aorta(const AortaParams& params = {});

/// Parameters for the synthetic cerebral vasculature.
struct CerebralParams {
  real_t root_radius = 6.0;   ///< trunk radius in voxels
  index_t depth = 5;          ///< bifurcation levels (2^depth leaves)
  real_t segment_length = 26.0;  ///< root segment length in voxels
  std::uint64_t seed = 0x9e3779b9ULL;  ///< branching-angle jitter stream
  real_t peak_velocity = 0.05;
};

/// Recursively bifurcating arterial tree with Murray's-law radius decay
/// (r_child = r_parent * 2^{-1/3}). Thin, spread-out vessels give a high
/// wall:bulk ratio and small cut cross-sections.
[[nodiscard]] Geometry make_cerebral(const CerebralParams& params = {});

/// Parameters for a stenosed (locally narrowed) vessel.
struct StenosisParams {
  index_t radius = 10;        ///< healthy lumen radius in voxels
  index_t length = 80;        ///< axial length in voxels
  real_t severity = 0.5;      ///< fractional radius reduction at the throat
  real_t throat_length = 12.0;  ///< axial extent of the narrowing
  real_t peak_velocity = 0.03;
};

/// Straight vessel with a smooth (cosine-profile) concentric stenosis at
/// mid-length. The classic pathology case: flow accelerates and wall shear
/// stress peaks at the throat.
[[nodiscard]] Geometry make_stenosis(const StenosisParams& params = {});

/// Parameters for a fusiform (spindle-shaped) aneurysm.
struct AneurysmParams {
  index_t radius = 8;          ///< healthy lumen radius in voxels
  index_t length = 80;         ///< axial length in voxels
  real_t dilation = 0.9;       ///< fractional radius increase at the bulge
  real_t bulge_length = 24.0;  ///< axial extent of the dilation
  real_t peak_velocity = 0.03;
};

/// Straight vessel with a smooth concentric dilation at mid-length: flow
/// decelerates and wall shear stress drops inside the sac.
[[nodiscard]] Geometry make_aneurysm(const AneurysmParams& params = {});

/// The names make_named() accepts, in the paper's Fig. 2 order.
[[nodiscard]] const std::vector<std::string>& names();

/// One of the paper's three geometries at the size the CLI, the benches and
/// the examples share: "cylinder" (radius 10, length 80), "aorta" (the
/// defaults) or "cerebral" (depth 5). Any other name throws
/// PreconditionError listing names().
[[nodiscard]] Geometry make_named(const std::string& name);

/// Geometry summary used by tests and the benchmarks.
struct GeometryStats {
  TypeCounts counts;
  real_t bulk_to_wall_ratio = 0.0;
  real_t fill_fraction = 0.0;  ///< fluid voxels / bounding-box volume
};

[[nodiscard]] GeometryStats compute_stats(const Geometry& geometry);

}  // namespace hemo::geometry
