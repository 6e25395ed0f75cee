// Tests for campaign/calibration persistence.
#include <gtest/gtest.h>

#include <sstream>

#include "core/persistence.hpp"

namespace hemo {
namespace {

TEST(CampaignPersistence, RoundTripPreservesObservations) {
  core::CampaignTracker tracker;
  tracker.record(core::Observation{"aorta", "CSP-2 EC", 36,
                                   units::Mflups(125.5),
                                   units::Mflups(99.25)});
  tracker.record(core::Observation{"cerebral", "CSP-2 Small", 128,
                                   units::Mflups(88.125),
                                   units::Mflups(70.0625)});

  std::stringstream buffer;
  core::save_campaign(tracker, buffer);
  const core::CampaignTracker restored = core::load_campaign(buffer);
  ASSERT_EQ(restored.size(), 2);
  EXPECT_EQ(restored.observations()[0].workload, "aorta");
  EXPECT_EQ(restored.observations()[0].instance, "CSP-2 EC");
  EXPECT_EQ(restored.observations()[1].n_tasks, 128);
  EXPECT_DOUBLE_EQ(restored.observations()[1].measured_mflups.value(),
                   70.0625);
  EXPECT_DOUBLE_EQ(restored.correction_factor(),
                   tracker.correction_factor());
}

TEST(CampaignPersistence, RejectsGarbage) {
  std::stringstream garbage("not a campaign file");
  EXPECT_THROW(core::load_campaign(garbage), NumericError);
}

TEST(CalibrationPersistence, RoundTripPreservesModels) {
  const auto& profile = cluster::instance_by_abbrev("CSP-2 GPU");
  const core::InstanceCalibration cal = core::calibrate_instance(profile);

  std::stringstream buffer;
  core::save_calibration(cal, buffer);
  const core::InstanceCalibration restored =
      core::load_calibration(buffer);
  EXPECT_EQ(restored.abbrev, cal.abbrev);
  EXPECT_DOUBLE_EQ(restored.memory.a1, cal.memory.a1);
  EXPECT_DOUBLE_EQ(restored.memory.a3, cal.memory.a3);
  EXPECT_DOUBLE_EQ(restored.inter.bandwidth, cal.inter.bandwidth);
  EXPECT_DOUBLE_EQ(restored.intra.latency, cal.intra.latency);
  ASSERT_TRUE(restored.inter_raw.has_value());
  // Raw tables are resampled on the power-of-two ladder; interpolated
  // values must agree closely at intermediate sizes.
  for (real_t bytes : {100.0, 5000.0, 300000.0}) {
    EXPECT_NEAR((*restored.inter_raw)(bytes), (*cal.inter_raw)(bytes),
                (*cal.inter_raw)(bytes) * 0.05);
  }
  ASSERT_TRUE(restored.gpu_bandwidth.has_value());
  EXPECT_DOUBLE_EQ(restored.gpu_bandwidth->value(),
                   cal.gpu_bandwidth->value());
  EXPECT_DOUBLE_EQ(restored.gpu_pcie->latency, cal.gpu_pcie->latency);
}

TEST(CalibrationPersistence, CpuOnlyCalibrationHasNoGpuFields) {
  const core::InstanceCalibration cal =
      core::calibrate_instance(cluster::instance_by_abbrev("TRC"));
  std::stringstream buffer;
  core::save_calibration(cal, buffer);
  const auto restored = core::load_calibration(buffer);
  EXPECT_FALSE(restored.gpu_bandwidth.has_value());
}

}  // namespace
}  // namespace hemo
