#include "geometry/generators.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>

#include "util/rng.hpp"

namespace hemo::geometry {

namespace {

real_t sq(real_t v) { return v * v; }

/// Squared distance from point q to segment [p0, p1].
real_t dist2_to_segment(const Point3& q, const Point3& p0, const Point3& p1) {
  const real_t vx = p1.x - p0.x, vy = p1.y - p0.y, vz = p1.z - p0.z;
  const real_t wx = q.x - p0.x, wy = q.y - p0.y, wz = q.z - p0.z;
  const real_t vv = vx * vx + vy * vy + vz * vz;
  real_t t = vv > 0.0 ? (wx * vx + wy * vy + wz * vz) / vv : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  return sq(q.x - (p0.x + t * vx)) + sq(q.y - (p0.y + t * vy)) +
         sq(q.z - (p0.z + t * vz));
}

/// Marks fluid voxels within `radius` of `center` on the plane fixed at
/// coordinate `plane_value` along `axis` with classification `type`.
void mark_disc(VoxelGrid& grid, const Point3& center, int axis,
               index_t plane_value, real_t radius, PointType type) {
  const real_t r2 = sq(radius + 0.5);
  for (index_t z = 0; z < grid.nz(); ++z) {
    for (index_t y = 0; y < grid.ny(); ++y) {
      for (index_t x = 0; x < grid.nx(); ++x) {
        const index_t along = axis == 0 ? x : axis == 1 ? y : z;
        if (along != plane_value) continue;
        if (!grid.is_fluid(x, y, z)) continue;
        const real_t dx = static_cast<real_t>(x) - center.x;
        const real_t dy = static_cast<real_t>(y) - center.y;
        const real_t dz = static_cast<real_t>(z) - center.z;
        const real_t d2 = axis == 0   ? dy * dy + dz * dz
                          : axis == 1 ? dx * dx + dz * dz
                                      : dx * dx + dy * dy;
        if (d2 <= r2) grid.set(x, y, z, type);
      }
    }
  }
}

/// Marks fluid voxels within `radius` of a sphere at `center` as `type`
/// (used for interior end-caps of the cerebral tree leaves).
void mark_ball(VoxelGrid& grid, const Point3& center, real_t radius,
               PointType type) {
  const real_t r2 = sq(radius + 0.5);
  const index_t x0 = std::max<index_t>(0, static_cast<index_t>(center.x - radius - 1));
  const index_t y0 = std::max<index_t>(0, static_cast<index_t>(center.y - radius - 1));
  const index_t z0 = std::max<index_t>(0, static_cast<index_t>(center.z - radius - 1));
  const index_t x1 = std::min(grid.nx() - 1, static_cast<index_t>(center.x + radius + 1));
  const index_t y1 = std::min(grid.ny() - 1, static_cast<index_t>(center.y + radius + 1));
  const index_t z1 = std::min(grid.nz() - 1, static_cast<index_t>(center.z + radius + 1));
  for (index_t z = z0; z <= z1; ++z) {
    for (index_t y = y0; y <= y1; ++y) {
      for (index_t x = x0; x <= x1; ++x) {
        if (!grid.is_fluid(x, y, z)) continue;
        const real_t d2 = sq(static_cast<real_t>(x) - center.x) +
                          sq(static_cast<real_t>(y) - center.y) +
                          sq(static_cast<real_t>(z) - center.z);
        if (d2 <= r2) grid.set(x, y, z, type);
      }
    }
  }
}

}  // namespace

void carve_capsule(VoxelGrid& grid, const Point3& p0, const Point3& p1,
                   real_t radius) {
  HEMO_REQUIRE(radius > 0.0, "carve_capsule radius must be > 0");
  const real_t r2 = sq(radius);
  const index_t x0 = std::max<index_t>(
      0, static_cast<index_t>(std::floor(std::min(p0.x, p1.x) - radius)));
  const index_t y0 = std::max<index_t>(
      0, static_cast<index_t>(std::floor(std::min(p0.y, p1.y) - radius)));
  const index_t z0 = std::max<index_t>(
      0, static_cast<index_t>(std::floor(std::min(p0.z, p1.z) - radius)));
  const index_t x1 = std::min(
      grid.nx() - 1,
      static_cast<index_t>(std::ceil(std::max(p0.x, p1.x) + radius)));
  const index_t y1 = std::min(
      grid.ny() - 1,
      static_cast<index_t>(std::ceil(std::max(p0.y, p1.y) + radius)));
  const index_t z1 = std::min(
      grid.nz() - 1,
      static_cast<index_t>(std::ceil(std::max(p0.z, p1.z) + radius)));
  for (index_t z = z0; z <= z1; ++z) {
    for (index_t y = y0; y <= y1; ++y) {
      for (index_t x = x0; x <= x1; ++x) {
        const Point3 q{static_cast<real_t>(x), static_cast<real_t>(y),
                       static_cast<real_t>(z)};
        if (dist2_to_segment(q, p0, p1) <= r2) {
          grid.set(x, y, z, PointType::kBulk);
        }
      }
    }
  }
}

Geometry make_cylinder(const CylinderParams& params) {
  HEMO_REQUIRE(params.radius >= 2 && params.length >= 4,
               "cylinder must be at least 2 voxels wide and 4 long");
  const index_t d = 2 * params.radius + 3;
  VoxelGrid grid(d, d, params.length);
  const real_t c = static_cast<real_t>(d - 1) / 2.0;
  const real_t r = static_cast<real_t>(params.radius);

  carve_capsule(grid, Point3{c, c, -r}, // caps poke out so end discs are full
                Point3{c, c, static_cast<real_t>(params.length - 1) + r}, r);
  grid.classify_walls();

  mark_disc(grid, Point3{c, c, 0.0}, /*axis=*/2, /*plane=*/0, r,
            PointType::kInlet);
  mark_disc(grid, Point3{c, c, static_cast<real_t>(params.length - 1)},
            /*axis=*/2, params.length - 1, r, PointType::kOutlet);

  Geometry geo{"cylinder", std::move(grid), {}};
  geo.inlets.push_back(InletSpec{Point3{c, c, 0.0}, 2, +1, r,
                                 params.peak_velocity});
  return geo;
}

Geometry make_periodic_cylinder(const CylinderParams& params) {
  HEMO_REQUIRE(params.radius >= 2 && params.length >= 4,
               "cylinder must be at least 2 voxels wide and 4 long");
  const index_t d = 2 * params.radius + 3;
  VoxelGrid grid(d, d, params.length);
  const real_t c = static_cast<real_t>(d - 1) / 2.0;
  const real_t r = static_cast<real_t>(params.radius);
  const real_t r2 = r * r;
  for (index_t z = 0; z < params.length; ++z) {
    for (index_t y = 0; y < d; ++y) {
      for (index_t x = 0; x < d; ++x) {
        const real_t dx = static_cast<real_t>(x) - c;
        const real_t dy = static_cast<real_t>(y) - c;
        if (dx * dx + dy * dy <= r2) grid.set(x, y, z, PointType::kBulk);
      }
    }
  }
  grid.classify_walls(false, false, /*periodic_z=*/true);
  return Geometry{"periodic-cylinder", std::move(grid), {}};
}

Geometry make_aorta(const AortaParams& params) {
  HEMO_REQUIRE(params.vessel_radius >= 3.0 && params.arch_radius >
                   params.vessel_radius,
               "aorta parameters out of range");
  const real_t r = params.vessel_radius;
  const real_t arch_r = params.arch_radius;
  const index_t nz = params.height;
  // Domain: arch lies in the x-z plane. Ascending limb at x = cx - arch_r,
  // descending at x = cx + arch_r.
  const index_t nx = static_cast<index_t>(2.0 * arch_r + 4.0 * r + 8.0);
  const index_t ny = static_cast<index_t>(2.0 * r + 7.0);
  VoxelGrid grid(nx, ny, nz);

  const real_t cx = static_cast<real_t>(nx - 1) / 2.0;
  const real_t cy = static_cast<real_t>(ny - 1) / 2.0;
  const real_t arch_top_z = static_cast<real_t>(nz) - arch_r - r - 3.0;

  const Point3 asc_bottom{cx - arch_r, cy, -r};
  const Point3 asc_top{cx - arch_r, cy, arch_top_z};
  const Point3 desc_top{cx + arch_r, cy, arch_top_z};
  const Point3 desc_bottom{cx + arch_r, cy, -r};

  carve_capsule(grid, asc_bottom, asc_top, r);
  carve_capsule(grid, desc_top, desc_bottom, r);

  // Arch: semicircle of radius arch_r centered at (cx, cy, arch_top_z),
  // approximated by short segments.
  constexpr index_t kArchSegments = 24;
  Point3 prev = asc_top;
  for (index_t i = 1; i <= kArchSegments; ++i) {
    const real_t theta = std::numbers::pi *
                         static_cast<real_t>(i) /
                         static_cast<real_t>(kArchSegments);
    const Point3 p{cx - arch_r * std::cos(theta), cy,
                   arch_top_z + arch_r * std::sin(theta)};
    carve_capsule(grid, prev, p, r);
    prev = p;
  }

  // Three supra-aortic branches from the arch crown going straight up.
  const real_t crown_z = arch_top_z + arch_r;
  const std::array<real_t, 3> branch_x = {cx - arch_r * 0.45, cx,
                                          cx + arch_r * 0.45};
  for (real_t bx : branch_x) {
    // Branch roots sit on the arch; ends poke past the top boundary so the
    // cap is an open outlet disc.
    const real_t root_z = arch_top_z +
                          std::sqrt(std::max(0.0, sq(arch_r) - sq(bx - cx)));
    carve_capsule(grid, Point3{bx, cy, root_z - r},
                  Point3{bx, cy, static_cast<real_t>(nz - 1) +
                                     params.branch_radius},
                  params.branch_radius);
  }
  (void)crown_z;

  grid.classify_walls();

  // Inlet: ascending root at z = 0. Outlets: descending root at z = 0 and
  // the three branch tops at z = nz - 1.
  mark_disc(grid, Point3{cx - arch_r, cy, 0.0}, 2, 0, r, PointType::kInlet);
  mark_disc(grid, Point3{cx + arch_r, cy, 0.0}, 2, 0, r, PointType::kOutlet);
  for (real_t bx : branch_x) {
    mark_disc(grid, Point3{bx, cy, static_cast<real_t>(nz - 1)}, 2, nz - 1,
              params.branch_radius, PointType::kOutlet);
  }

  Geometry geo{"aorta", std::move(grid), {}};
  geo.inlets.push_back(InletSpec{Point3{cx - arch_r, cy, 0.0}, 2, +1, r,
                                 params.peak_velocity});
  return geo;
}

namespace {

struct TreeLeaf {
  Point3 end;
  real_t radius = 0.0;
};

/// Recursively carves a bifurcating tree; collects leaf end-caps.
void carve_tree(VoxelGrid& grid, Xoshiro256& rng, const Point3& base,
                real_t dir_x, real_t dir_y, real_t dir_z, real_t radius,
                real_t length, index_t levels_left,
                std::vector<TreeLeaf>& leaves) {
  const Point3 end{base.x + dir_x * length, base.y + dir_y * length,
                   base.z + dir_z * length};
  carve_capsule(grid, base, end, radius);
  if (levels_left == 0) {
    leaves.push_back(TreeLeaf{end, radius});
    return;
  }
  // Murray's law: two equal children, r_child = r * 2^{-1/3}.
  const real_t child_r = std::max(1.6, radius * 0.7937);
  const real_t child_len = length * 0.82;
  // Split plane orientation jitters deterministically per branch.
  const real_t phi = rng.uniform(0.0, std::numbers::pi);
  const real_t spread = rng.uniform(0.45, 0.8);  // half-angle in radians

  // Build an orthonormal frame around the parent direction.
  real_t ux = -dir_y, uy = dir_x, uz = 0.0;
  real_t norm = std::sqrt(ux * ux + uy * uy + uz * uz);
  if (norm < 1e-9) {  // parent along z
    ux = 1.0; uy = 0.0; uz = 0.0;
    norm = 1.0;
  }
  ux /= norm; uy /= norm; uz /= norm;
  // v = dir x u
  const real_t vx = dir_y * uz - dir_z * uy;
  const real_t vy = dir_z * ux - dir_x * uz;
  const real_t vz = dir_x * uy - dir_y * ux;
  const real_t px = ux * std::cos(phi) + vx * std::sin(phi);
  const real_t py = uy * std::cos(phi) + vy * std::sin(phi);
  const real_t pz = uz * std::cos(phi) + vz * std::sin(phi);

  for (int sgn : {-1, +1}) {
    real_t cx = dir_x * std::cos(spread) +
                static_cast<real_t>(sgn) * px * std::sin(spread);
    real_t cy = dir_y * std::cos(spread) +
                static_cast<real_t>(sgn) * py * std::sin(spread);
    real_t cz = dir_z * std::cos(spread) +
                static_cast<real_t>(sgn) * pz * std::sin(spread);
    const real_t cn = std::sqrt(cx * cx + cy * cy + cz * cz);
    cx /= cn; cy /= cn; cz /= cn;
    carve_tree(grid, rng, end, cx, cy, cz, child_r, child_len,
               levels_left - 1, leaves);
  }
}

}  // namespace

Geometry make_cerebral(const CerebralParams& params) {
  HEMO_REQUIRE(params.depth >= 1 && params.depth <= 8,
               "cerebral depth must be in [1, 8]");
  // Size the domain to the worst-case tree span.
  real_t reach = 0.0, len = params.segment_length;
  for (index_t i = 0; i <= params.depth; ++i) {
    reach += len;
    len *= 0.82;
  }
  const index_t half = static_cast<index_t>(reach * 0.9 + 8.0);
  const index_t nx = 2 * half + 1;
  const index_t ny = 2 * half + 1;
  const index_t nz = static_cast<index_t>(reach + params.root_radius + 10.0);
  VoxelGrid grid(nx, ny, nz);

  const real_t cx = static_cast<real_t>(half);
  const real_t cy = static_cast<real_t>(half);

  Xoshiro256 rng(params.seed);
  std::vector<TreeLeaf> leaves;
  carve_tree(grid, rng, Point3{cx, cy, -params.root_radius},
             /*dir=*/0.0, 0.0, 1.0, params.root_radius,
             params.segment_length + params.root_radius, params.depth,
             leaves);
  grid.classify_walls();

  mark_disc(grid, Point3{cx, cy, 0.0}, 2, 0, params.root_radius,
            PointType::kInlet);
  for (const TreeLeaf& leaf : leaves) {
    mark_ball(grid, leaf.end, leaf.radius, PointType::kOutlet);
  }

  Geometry geo{"cerebral", std::move(grid), {}};
  geo.inlets.push_back(InletSpec{Point3{cx, cy, 0.0}, 2, +1,
                                 params.root_radius, params.peak_velocity});
  return geo;
}

namespace {

/// Carves a straight axial vessel whose radius varies with z, marks the
/// end discs, and packages the geometry.
Geometry make_varying_radius_vessel(const std::string& name, index_t length,
                                    real_t max_radius,
                                    const std::function<real_t(real_t)>& r_of_z,
                                    real_t peak_velocity) {
  const index_t d = 2 * static_cast<index_t>(max_radius) + 5;
  VoxelGrid grid(d, d, length);
  const real_t c = static_cast<real_t>(d - 1) / 2.0;
  for (index_t z = 0; z < length; ++z) {
    const real_t r = r_of_z(static_cast<real_t>(z));
    const real_t r2 = r * r;
    for (index_t y = 0; y < d; ++y) {
      for (index_t x = 0; x < d; ++x) {
        const real_t dx = static_cast<real_t>(x) - c;
        const real_t dy = static_cast<real_t>(y) - c;
        if (dx * dx + dy * dy <= r2) grid.set(x, y, z, PointType::kBulk);
      }
    }
  }
  grid.classify_walls();
  const real_t r_in = r_of_z(0.0);
  const real_t r_out = r_of_z(static_cast<real_t>(length - 1));
  mark_disc(grid, Point3{c, c, 0.0}, 2, 0, r_in, PointType::kInlet);
  mark_disc(grid, Point3{c, c, static_cast<real_t>(length - 1)}, 2,
            length - 1, r_out, PointType::kOutlet);
  Geometry geo{name, std::move(grid), {}};
  geo.inlets.push_back(InletSpec{Point3{c, c, 0.0}, 2, +1, r_in,
                                 peak_velocity});
  return geo;
}

}  // namespace

Geometry make_stenosis(const StenosisParams& params) {
  HEMO_REQUIRE(params.severity > 0.0 && params.severity < 0.9,
               "stenosis severity must be in (0, 0.9)");
  HEMO_REQUIRE(params.radius >= 4 && params.length >= 16,
               "stenosis vessel too small");
  const real_t r0 = static_cast<real_t>(params.radius);
  const real_t zc = static_cast<real_t>(params.length - 1) / 2.0;
  auto r_of_z = [=](real_t z) {
    const real_t dz = std::abs(z - zc);
    if (dz >= params.throat_length) return r0;
    // Smooth cosine bump: full severity at the throat center.
    const real_t shape =
        0.5 * (1.0 + std::cos(std::numbers::pi * dz / params.throat_length));
    return r0 * (1.0 - params.severity * shape);
  };
  return make_varying_radius_vessel("stenosis", params.length, r0, r_of_z,
                                    params.peak_velocity);
}

Geometry make_aneurysm(const AneurysmParams& params) {
  HEMO_REQUIRE(params.dilation > 0.0 && params.dilation < 2.0,
               "aneurysm dilation must be in (0, 2)");
  HEMO_REQUIRE(params.radius >= 4 && params.length >= 16,
               "aneurysm vessel too small");
  const real_t r0 = static_cast<real_t>(params.radius);
  const real_t zc = static_cast<real_t>(params.length - 1) / 2.0;
  const real_t r_max = r0 * (1.0 + params.dilation);
  auto r_of_z = [=](real_t z) {
    const real_t dz = std::abs(z - zc);
    if (dz >= params.bulge_length) return r0;
    const real_t shape =
        0.5 * (1.0 + std::cos(std::numbers::pi * dz / params.bulge_length));
    return r0 * (1.0 + params.dilation * shape);
  };
  return make_varying_radius_vessel("aneurysm", params.length, r_max, r_of_z,
                                    params.peak_velocity);
}

const std::vector<std::string>& names() {
  static const std::vector<std::string> list = {"cylinder", "aorta",
                                                "cerebral"};
  return list;
}

Geometry make_named(const std::string& name) {
  if (name == "cylinder") return make_cylinder({.radius = 10, .length = 80});
  if (name == "aorta") return make_aorta({});
  if (name == "cerebral") return make_cerebral({.depth = 5});
  std::string expected;
  for (const std::string& known : names()) {
    expected += (expected.empty() ? "" : " | ") + known;
  }
  throw PreconditionError("unknown geometry: " + name + " (expected " +
                          expected + ")");
}

GeometryStats compute_stats(const Geometry& geometry) {
  GeometryStats s;
  s.counts = geometry.grid.count_types();
  s.bulk_to_wall_ratio =
      s.counts.wall > 0
          ? static_cast<real_t>(s.counts.bulk) /
                static_cast<real_t>(s.counts.wall)
          : 0.0;
  s.fill_fraction = static_cast<real_t>(s.counts.fluid()) /
                    static_cast<real_t>(geometry.grid.volume());
  return s;
}

}  // namespace hemo::geometry
