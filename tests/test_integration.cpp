// End-to-end integration tests exercising the full framework of the
// paper's Fig. 1: calibrate instances, calibrate the anatomy, predict,
// "measure" on the virtual cloud, refine, and guard.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dashboard.hpp"
#include "fit/stats.hpp"
#include "harvey/simulation.hpp"
#include "proxy/proxy_app.hpp"

namespace hemo {
namespace {

TEST(Integration, FullFrameworkLoopImprovesPredictions) {
  // Phase 1: characterize the instance.
  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  const core::InstanceCalibration ical = core::calibrate_instance(profile);

  // Phase 2: anatomy-specific calibration on the aorta.
  harvey::SimulationOptions opts;
  opts.solver.tau = 0.8;
  harvey::Simulation sim(geometry::make_aorta({}), opts);
  const std::vector<index_t> counts = {2, 4, 8, 16, 32};
  const core::WorkloadCalibration wcal =
      core::calibrate_workload(sim, counts, profile.cores_per_node);

  // Predict, measure, record.
  core::CampaignTracker tracker;
  for (index_t n : {9, 18, 36, 72}) {
    const auto pred = core::predict_general(wcal, ical, n,
                                            profile.cores_per_node);
    const auto meas = sim.measure(profile, n, 300);
    tracker.record(core::Observation{"aorta", profile.abbrev, n,
                                     pred.mflups, meas.mflups});
  }

  // The raw model overpredicts; refinement reduces the error.
  EXPECT_LT(tracker.correction_factor(), 1.0);
  EXPECT_LT(tracker.refined_mean_abs_relative_error(),
            tracker.mean_abs_relative_error());

  // Guarded job: the refined time-to-solution estimate with 10 % tolerance
  // must cover an actual measured run.
  const auto pred36 = core::predict_general(wcal, ical, 36,
                                            profile.cores_per_node);
  const real_t refined_step =
      1.0 / (tracker.refined_mflups(pred36.mflups).value() * 1e6 /
             static_cast<real_t>(wcal.total_points));
  core::JobGuard guard;
  guard.predicted_seconds = units::Seconds(refined_step * 1000.0);
  guard.tolerance = 0.15;
  const auto actual = sim.measure(profile, 36, 1000);
  EXPECT_FALSE(guard.should_abort(actual.total_seconds, 1.0));
}

TEST(Integration, NoiseCampaignMatchesTableFourMagnitudes) {
  // Table IV: CoV of repeated measurements is small (0.004 - 0.02).
  const auto& profile = cluster::instance_by_abbrev("CSP-2 Small");
  harvey::SimulationOptions opts;
  harvey::Simulation sim(geometry::make_aorta({}), opts);
  std::vector<real_t> samples;
  for (index_t day = 0; day < 7; ++day) {
    for (index_t hour = 0; hour < 24; hour += 6) {
      samples.push_back(
          sim.measure(profile, 16, 100, {day, hour, 0}).mflups.value());
    }
  }
  const auto summary = fit::summarize(samples);
  EXPECT_GT(summary.cov, 0.001);
  EXPECT_LT(summary.cov, 0.05);
}

TEST(Integration, StrongScalingShapesMatchFigureThree) {
  // Throughput rises with ranks within a node for every geometry, and the
  // cerebral geometry leads at equal rank counts.
  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  harvey::SimulationOptions opts;
  std::vector<std::pair<std::string, geometry::Geometry>> geos;
  geos.emplace_back("cylinder",
                    geometry::make_cylinder({.radius = 10, .length = 80}));
  geos.emplace_back("aorta", geometry::make_aorta({}));
  geos.emplace_back("cerebral", geometry::make_cerebral({.depth = 5}));

  real_t cerebral36 = 0.0, cylinder36 = 0.0;
  for (auto& [name, geo] : geos) {
    harvey::Simulation sim(std::move(geo), opts);
    const real_t m9 = sim.measure(profile, 9, 100).mflups.value();
    const real_t m36 = sim.measure(profile, 36, 100).mflups.value();
    EXPECT_GT(m36, m9) << name;
    if (name == "cerebral") cerebral36 = m36;
    if (name == "cylinder") cylinder36 = m36;
  }
  EXPECT_GT(cerebral36, cylinder36);
}

TEST(Integration, ProxyMeasurementsMatchKernelOrdering) {
  // Fig. 4 orderings on the virtual cloud: AA unrolled is the fastest
  // family; AB benefits from AoS.
  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  proxy::ProxyParams params;
  auto mflups_for = [&](lbm::KernelConfig k) {
    return proxy::make_simulation(params, k)
        .measure(profile, 36, 100)
        .mflups.value();
  };
  lbm::KernelConfig aa_aos, ab_aos, ab_soa;
  aa_aos.propagation = lbm::Propagation::kAA;
  ab_soa.layout = lbm::Layout::kSoA;
  EXPECT_GT(mflups_for(aa_aos), mflups_for(ab_aos));
  EXPECT_GT(mflups_for(ab_aos), mflups_for(ab_soa));
}

TEST(Integration, DirectModelCompositionShowsCommGrowth) {
  // Figs. 9-10: as ranks grow, internodal communication grows into the
  // dominant share of the cylinder's critical-task runtime on CSP-2.
  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  const core::InstanceCalibration ical = core::calibrate_instance(profile);
  harvey::SimulationOptions opts;
  harvey::Simulation sim(
      geometry::make_cylinder({.radius = 10, .length = 80}), opts);
  const auto p36 = core::predict_direct(sim.plan(36, 36), ical);
  const auto p144 = core::predict_direct(sim.plan(144, 36), ical);
  const real_t share36 = p36.t_comm / p36.step_seconds;
  const real_t share144 = p144.t_comm / p144.step_seconds;
  EXPECT_GT(share144, share36);
  // Internodal dwarfs intranodal at 4 nodes (paper Fig. 9: green ≪ purple).
  EXPECT_GT(p144.t_inter.value(), p144.t_intra.value());
}

}  // namespace
}  // namespace hemo
