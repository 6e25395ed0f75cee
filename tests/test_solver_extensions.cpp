// Tests for solver extensions: periodic meshes, body-force driving
// (validated against the analytic Poiseuille solution), pulsatile inlets,
// VTK export, and checkpoint/restart.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "geometry/generators.hpp"
#include "lbm/io.hpp"
#include "lbm/point_update.hpp"
#include "lbm/mesh.hpp"
#include "lbm/solver.hpp"
#include "runtime/parallel_solver.hpp"

namespace hemo::lbm {
namespace {

TEST(PeriodicMesh, WrapsNeighborsAcrossTheSeam) {
  const auto geo = geometry::make_periodic_cylinder({.radius = 4,
                                                     .length = 12});
  MeshOptions options;
  options.periodic_z = true;
  const FluidMesh mesh = FluidMesh::build(geo.grid, options);
  // A center-axis point at z = 0 must see a fluid neighbor at z = L-1
  // through the -z direction (direction 6).
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    const auto& v = mesh.voxel(p);
    if (v.z != 0) continue;
    if (mesh.type(p) != PointType::kBulk) continue;
    const std::int32_t nb = mesh.neighbor(p, 6);  // (0, 0, -1)
    ASSERT_NE(nb, kSolidLink);
    EXPECT_EQ(mesh.voxel(static_cast<index_t>(nb)).z, geo.grid.nz() - 1);
  }
  // No inlet/outlet points and no end-cap walls on the axis.
  const auto counts = mesh.type_counts();
  EXPECT_EQ(counts.inlet, 0);
  EXPECT_EQ(counts.outlet, 0);
}

TEST(BodyForce, DrivenPeriodicPoiseuilleMatchesAnalyticPeak) {
  // Force-driven periodic cylinder: steady u_max = F R^2 / (4 nu rho).
  // This closes the loop on the solver's viscosity: both the profile
  // *shape* and its absolute *magnitude* must match.
  const index_t radius = 6;
  const auto geo = geometry::make_periodic_cylinder(
      {.radius = radius, .length = 12});
  MeshOptions mesh_options;
  mesh_options.periodic_z = true;
  const FluidMesh mesh = FluidMesh::build(geo.grid, mesh_options);

  SolverParams params;
  params.tau = 0.9;  // nu = 0.4/3
  const real_t force = 1e-5;
  params.body_force = {0.0, 0.0, force};
  Solver<double> solver(mesh, params, {});
  solver.run(4000);

  const real_t nu = viscosity_from_tau(params.tau);
  // u(r) = F (Reff^2 - r^2) / (4 nu): the slope of u against r^2 is
  // exactly -F / (4 nu), independent of the staircase boundary's
  // effective radius. Fit the profile at one z-plane and verify both the
  // slope and a physical effective radius.
  const real_t c = static_cast<real_t>(geo.grid.nx() - 1) / 2.0;
  real_t sx = 0, sy = 0, sxx = 0, sxy = 0, n = 0;
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    const auto& v = mesh.voxel(p);
    if (v.z != 5) continue;
    const real_t dx = static_cast<real_t>(v.x) - c;
    const real_t dy = static_cast<real_t>(v.y) - c;
    const real_t r2 = dx * dx + dy * dy;
    const real_t u = solver.moments_at(p).uz;
    sx += r2;
    sy += u;
    sxx += r2 * r2;
    sxy += r2 * u;
    n += 1.0;
  }
  const real_t b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  const real_t a = (sy - b * sx) / n;
  const real_t expected_slope = -force / (4.0 * nu);
  EXPECT_NEAR(b, expected_slope, std::abs(expected_slope) * 0.05);
  const real_t reff = std::sqrt(-a / b);
  EXPECT_GT(reff, static_cast<real_t>(radius) - 0.7);
  EXPECT_LT(reff, static_cast<real_t>(radius) + 0.7);
}

TEST(BodyForce, ConservesMassInClosedPeriodicDomain) {
  const auto geo = geometry::make_periodic_cylinder({.radius = 4,
                                                     .length = 8});
  MeshOptions options;
  options.periodic_z = true;
  const FluidMesh mesh = FluidMesh::build(geo.grid, options);
  SolverParams params;
  params.body_force = {0.0, 0.0, 2e-5};
  Solver<double> solver(mesh, params, {});
  const real_t mass0 = solver.total_mass();
  solver.run(200);
  EXPECT_NEAR(solver.total_mass(), mass0, mass0 * 1e-12);
}

TEST(PulsatileInlet, MeanFlowOscillatesAtImposedPeriod) {
  geometry::CylinderParams cyl{.radius = 5, .length = 24,
                               .peak_velocity = 0.04};
  auto geo = geometry::make_cylinder(cyl);
  geo.inlets[0].pulse_amplitude = 0.5;
  geo.inlets[0].pulse_period = 200.0;
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams params;
  Solver<double> solver(mesh, params, std::span(geo.inlets));
  solver.run(1000);  // settle into the oscillatory regime

  // Sample mean speed over one period: must rise and fall around the
  // steady value, with a clear max/min spread.
  real_t lo = 1e30, hi = 0.0;
  for (index_t i = 0; i < 10; ++i) {
    solver.run(20);
    const real_t s = solver.mean_speed();
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GT(hi, lo * 1.3);  // genuine oscillation, not noise
}

TEST(PulsatileInlet, ZeroAmplitudeMatchesSteadySolverBitwise) {
  geometry::CylinderParams cyl{.radius = 4, .length = 16};
  auto steady_geo = geometry::make_cylinder(cyl);
  auto pulse_geo = geometry::make_cylinder(cyl);
  pulse_geo.inlets[0].pulse_amplitude = 0.0;
  pulse_geo.inlets[0].pulse_period = 100.0;
  const FluidMesh mesh = FluidMesh::build(steady_geo.grid);
  SolverParams params;
  Solver<double> a(mesh, params, std::span(steady_geo.inlets));
  Solver<double> b(mesh, params, std::span(pulse_geo.inlets));
  a.run(50);
  b.run(50);
  for (index_t p = 0; p < mesh.num_points(); p += 5) {
    EXPECT_DOUBLE_EQ(a.f_value(p, 5), b.f_value(p, 5));
  }
}

TEST(PulseScale, FormulaProperties) {
  EXPECT_DOUBLE_EQ(pulse_scale<double>(0.0, 100.0, 37), 1.0);
  EXPECT_DOUBLE_EQ(pulse_scale<double>(0.3, 0.0, 37), 1.0);
  EXPECT_NEAR(pulse_scale<double>(0.5, 100.0, 25), 1.5, 1e-12);  // peak
  EXPECT_NEAR(pulse_scale<double>(0.5, 100.0, 75), 0.5, 1e-12);  // trough
  EXPECT_NEAR(pulse_scale<double>(0.5, 100.0, 0), 1.0, 1e-12);
}

TEST(VtkOutput, WritesParsableHeaderAndCounts) {
  const auto geo = geometry::make_cylinder({.radius = 3, .length = 10});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams params;
  Solver<double> solver(mesh, params, std::span(geo.inlets));
  solver.run(10);

  std::ostringstream oss;
  write_vtk(solver, oss, "test field");
  const std::string out = oss.str();
  EXPECT_NE(out.find("# vtk DataFile Version 3.0"), std::string::npos);
  EXPECT_NE(out.find("POINTS " + std::to_string(mesh.num_points())),
            std::string::npos);
  EXPECT_NE(out.find("SCALARS density"), std::string::npos);
  EXPECT_NE(out.find("VECTORS velocity"), std::string::npos);
  // Line count: header(5ish) + points + density + types + velocity.
  index_t lines = 0;
  for (char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_GT(lines, 4 * mesh.num_points());
}

TEST(Checkpoint, RoundTripIsBitwiseExact) {
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams params;
  Solver<double> solver(mesh, params, std::span(geo.inlets));
  solver.run(25);

  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_checkpoint(solver, buffer);
  solver.run(25);  // reference trajectory to t = 50
  std::vector<real_t> reference;
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    reference.push_back(solver.f_value(p, 7));
  }

  Solver<double> restored(mesh, params, std::span(geo.inlets));
  load_checkpoint(restored, buffer);
  EXPECT_EQ(restored.timestep(), 25);
  restored.run(25);
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    ASSERT_DOUBLE_EQ(restored.f_value(p, 7),
                     reference[static_cast<std::size_t>(p)]);
  }
}

TEST(Checkpoint, RejectsMismatchedConfiguration) {
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams ab, aa;
  aa.kernel.propagation = Propagation::kAA;
  Solver<double> writer(mesh, ab, std::span(geo.inlets));
  std::stringstream buffer(std::ios::in | std::ios::out |
                           std::ios::binary);
  save_checkpoint(writer, buffer);

  Solver<double> reader(mesh, aa, std::span(geo.inlets));
  EXPECT_THROW(load_checkpoint(reader, buffer), PreconditionError);
}

TEST(Checkpoint, RejectsGarbageStream) {
  const auto geo = geometry::make_cylinder({.radius = 3, .length = 8});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams params;
  Solver<double> solver(mesh, params, std::span(geo.inlets));
  std::stringstream buffer("this is not a checkpoint");
  EXPECT_THROW(load_checkpoint(solver, buffer), NumericError);
}

TEST(DistributedExtensions, ForcedPeriodicFlowMatchesSerialBitwise) {
  // Ranks with body force over a periodic mesh (ghosts wrap across the
  // seam) must still match the serial solver exactly, in both layouts.
  const auto geo = geometry::make_periodic_cylinder({.radius = 4,
                                                     .length = 12});
  MeshOptions options;
  options.periodic_z = true;
  const FluidMesh mesh = FluidMesh::build(geo.grid, options);
  const auto part =
      decomp::make_partition(mesh, 5, decomp::Strategy::kRcb);
  for (const Layout layout : {Layout::kAoS, Layout::kSoA}) {
    SCOPED_TRACE(to_string(layout));
    SolverParams params;
    params.body_force = {0.0, 0.0, 1e-5};
    params.kernel.layout = layout;

    Solver<double> serial(mesh, params, {});
    serial.run(40);
    runtime::ParallelSolver ranks(mesh, part, params, {});
    ranks.run(40);
    EXPECT_EQ(ranks.export_state(), serial.export_state());
    for (index_t p = 0; p < mesh.num_points(); p += 3) {
      const auto ms = serial.moments_at(p);
      const auto md = ranks.moments_at(p);
      ASSERT_DOUBLE_EQ(ms.uz, md.uz);
    }
  }
}

}  // namespace
}  // namespace hemo::lbm
