#include "check/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "check/generators.hpp"
#include "cluster/virtual_cluster.hpp"
#include "core/models.hpp"
#include "geometry/generators.hpp"
#include "lbm/mesh.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "lbm/solver.hpp"

namespace hemo::check {

namespace {

std::string format_ratio(real_t value) {
  std::ostringstream os;
  os.precision(4);
  os << value;
  return os.str();
}

}  // namespace

OracleContext OracleContext::make_default() {
  OracleContext ctx;
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32, 64};

  const auto add = [&](const std::string& name, geometry::Geometry geo) {
    Workload w;
    w.name = name;
    w.sim = std::make_unique<harvey::Simulation>(
        std::move(geo), harvey::SimulationOptions{});
    w.calibration =
        core::calibrate_workload(*w.sim, cal_counts, ctx.tasks_per_node);
    ctx.workloads.push_back(std::move(w));
  };
  add("cylinder", geometry::make_cylinder({.radius = 7, .length = 48}));
  add("aorta", geometry::make_aorta({.vessel_radius = 5.0,
                                     .arch_radius = 15.0,
                                     .height = 60,
                                     .branch_radius = 2.2}));
  add("cerebral", geometry::make_cerebral(
                      {.root_radius = 4.0, .depth = 4,
                       .segment_length = 18.0}));

  for (const cluster::InstanceProfile* p : cpu_catalog()) {
    ctx.calibrations.emplace(p->abbrev, core::calibrate_instance(*p));
  }
  return ctx;
}

namespace {

Property<ModelCase> model_case_property(OracleContext& ctx,
                                        const std::string& name) {
  Property<ModelCase> property;
  property.name = name;
  property.generate = [&ctx](Xoshiro256& rng) {
    ModelCase c;
    c.workload = rng.below(static_cast<index_t>(ctx.workloads.size()));
    c.instance = pick(rng, cpu_catalog())->abbrev;
    c.n_tasks = pick(rng, ctx.task_counts);
    c.day = rng.below(7);
    c.hour = rng.below(24);
    c.slot = rng.below(4);
    return c;
  };
  property.describe = [&ctx](const ModelCase& c) {
    std::ostringstream os;
    os << "workload=" << ctx.workloads[static_cast<std::size_t>(c.workload)].name
       << " instance=" << c.instance << " n_tasks=" << c.n_tasks
       << " when=" << c.day << '/' << c.hour << '/' << c.slot;
    return os.str();
  };
  property.shrink = [&ctx](const ModelCase& c) {
    std::vector<ModelCase> out;
    for (const index_t n : ctx.task_counts) {
      if (n >= c.n_tasks) break;  // task_counts is ascending
      ModelCase s = c;
      s.n_tasks = n;
      out.push_back(std::move(s));
    }
    if (c.workload != 0) {
      ModelCase s = c;
      s.workload = 0;
      out.push_back(std::move(s));
    }
    return out;
  };
  return property;
}

}  // namespace

PropertyResult oracle_model_agreement(OracleContext& ctx,
                                      const PropertyConfig& config) {
  Property<ModelCase> property =
      model_case_property(ctx, "model_agreement(general/direct)");
  property.check = [&ctx](const ModelCase& c) -> std::optional<std::string> {
    auto& w = ctx.workloads[static_cast<std::size_t>(c.workload)];
    const core::InstanceCalibration& cal = ctx.calibrations.at(c.instance);
    const auto& plan = w.sim->plan(c.n_tasks, ctx.tasks_per_node);
    const core::ModelPrediction direct = core::predict_direct(plan, cal);
    const core::ModelPrediction general = core::predict_general(
        w.calibration, cal, c.n_tasks, ctx.tasks_per_node);
    const real_t ratio = general.step_seconds / direct.step_seconds;
    if (ratio < kAgreementLow || ratio > kAgreementHigh) {
      return "general/direct step-time ratio " + format_ratio(ratio) +
             " outside [" + format_ratio(kAgreementLow) + ", " +
             format_ratio(kAgreementHigh) + "]";
    }
    return std::nullopt;
  };
  return run_property(property, config);
}

PropertyResult oracle_model_vs_measurement(OracleContext& ctx,
                                           const PropertyConfig& config) {
  Property<ModelCase> property =
      model_case_property(ctx, "model_vs_measurement(measured/direct)");
  property.check = [&ctx](const ModelCase& c) -> std::optional<std::string> {
    auto& w = ctx.workloads[static_cast<std::size_t>(c.workload)];
    const core::InstanceCalibration& cal = ctx.calibrations.at(c.instance);
    const auto& plan = w.sim->plan(c.n_tasks, ctx.tasks_per_node);
    const core::ModelPrediction direct = core::predict_direct(plan, cal);
    const cluster::VirtualCluster vc(cluster::instance_by_abbrev(c.instance));
    const cluster::ExecutionResult measured =
        vc.execute(plan, 25, {c.day, c.hour, c.slot});
    const real_t ratio = measured.step_seconds / direct.step_seconds;
    if (ratio < kMeasuredLow || ratio > kMeasuredHigh) {
      return "measured/direct step-time ratio " + format_ratio(ratio) +
             " outside [" + format_ratio(kMeasuredLow) + ", " +
             format_ratio(kMeasuredHigh) + "]";
    }
    return std::nullopt;
  };
  return run_property(property, config);
}

namespace {

/// Sampled solver-vs-analytic case.
struct PoiseuilleCase {
  index_t radius = 4;
  index_t length = 12;
  real_t tau = 0.9;
  real_t force = 1e-5;
};

}  // namespace

PropertyResult oracle_poiseuille(const PropertyConfig& config) {
  Property<PoiseuilleCase> property;
  property.name = "solver_vs_analytic(poiseuille)";
  property.generate = [](Xoshiro256& rng) {
    PoiseuilleCase c;
    c.radius = 5 + rng.below(2);                 // 5..6 voxels (below 5 the
                                                 // staircase bias exceeds
                                                 // the slope tolerance)
    c.length = 10 + 2 * rng.below(3);            // 10/12/14 voxels
    c.tau = 0.8 + 0.1 * static_cast<real_t>(rng.below(3));  // 0.8..1.0
    c.force = rng.uniform(6e-6, 2e-5);
    return c;
  };
  property.describe = [](const PoiseuilleCase& c) {
    std::ostringstream os;
    os << "radius=" << c.radius << " length=" << c.length << " tau=" << c.tau
       << " force=" << c.force;
    return os.str();
  };
  property.shrink = [](const PoiseuilleCase& c) {
    std::vector<PoiseuilleCase> out;
    if (c.radius > 5) {
      PoiseuilleCase s = c;
      s.radius = 5;
      out.push_back(s);
    }
    if (c.length > 10) {
      PoiseuilleCase s = c;
      s.length = 10;
      out.push_back(s);
    }
    return out;
  };
  property.check = [](const PoiseuilleCase& c) -> std::optional<std::string> {
    const auto geo = geometry::make_periodic_cylinder(
        {.radius = c.radius, .length = c.length});
    lbm::MeshOptions mesh_options;
    mesh_options.periodic_z = true;
    const lbm::FluidMesh mesh = lbm::FluidMesh::build(geo.grid, mesh_options);

    lbm::SolverParams params;
    params.tau = c.tau;
    params.body_force = {0.0, 0.0, c.force};
    lbm::Solver<double> solver(mesh, params, {});
    const real_t mass0 = solver.total_mass();
    solver.run(3500);

    const real_t drift = std::abs(solver.total_mass() - mass0) / mass0;
    if (drift > kMassDriftTol) {
      return "mass drift " + format_ratio(drift) + " exceeds " +
             format_ratio(kMassDriftTol);
    }

    // Fit u against r^2 on one z-plane; the slope must equal -F / (4 nu)
    // and the zero crossing must sit near the nominal radius.
    const real_t nu = lbm::viscosity_from_tau(params.tau);
    const real_t center = static_cast<real_t>(geo.grid.nx() - 1) / 2.0;
    const index_t plane = c.length / 2;
    real_t sx = 0, sy = 0, sxx = 0, sxy = 0, n = 0;
    for (index_t p = 0; p < mesh.num_points(); ++p) {
      const auto& v = mesh.voxel(p);
      if (v.z != plane) continue;
      const real_t dx = static_cast<real_t>(v.x) - center;
      const real_t dy = static_cast<real_t>(v.y) - center;
      const real_t r2 = dx * dx + dy * dy;
      const real_t u = solver.moments_at(p).uz;
      sx += r2;
      sy += u;
      sxx += r2 * r2;
      sxy += r2 * u;
      n += 1.0;
    }
    const real_t slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    const real_t intercept = (sy - slope * sx) / n;
    const real_t expected = -c.force / (4.0 * nu);
    if (std::abs(slope - expected) > std::abs(expected) * kPoiseuilleSlopeTol) {
      return "profile slope " + format_ratio(slope) + " vs analytic " +
             format_ratio(expected) + " beyond " +
             format_ratio(kPoiseuilleSlopeTol * 100.0) + " %";
    }
    const real_t reff = std::sqrt(-intercept / slope);
    const real_t nominal = static_cast<real_t>(c.radius);
    if (reff < nominal - kPoiseuilleRadiusSlack ||
        reff > nominal + kPoiseuilleRadiusSlack) {
      return "effective radius " + format_ratio(reff) +
             " outside nominal " + format_ratio(nominal) + " +- " +
             format_ratio(kPoiseuilleRadiusSlack);
    }
    return std::nullopt;
  };
  return run_property(property, config);
}

std::vector<PropertyResult> run_all_oracles(OracleContext& ctx,
                                            const PropertyConfig& config) {
  PropertyConfig solver_config = config;
  solver_config.cases = std::max<index_t>(2, config.cases / 10);
  std::vector<PropertyResult> results;
  // Wall-time per oracle lands in the registry (not in PropertyResult,
  // whose contents stay a pure function of the seed) so `hemocloud_cli
  // check` can report where the time went.
  const auto timed = [&results](auto&& oracle) {
    real_t seconds = 0.0;
    PropertyResult r = [&] {
      const obs::Phase phase("oracle", &seconds);
      return oracle();
    }();
    obs::MetricsRegistry::global().set("check_oracle_wall_seconds", seconds,
                                       {{"oracle", r.name}});
    results.push_back(std::move(r));
  };
  timed([&] { return oracle_model_agreement(ctx, config); });
  timed([&] { return oracle_model_vs_measurement(ctx, config); });
  timed([&] { return oracle_poiseuille(solver_config); });
  return results;
}

}  // namespace hemo::check
