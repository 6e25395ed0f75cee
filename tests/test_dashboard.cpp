// Tests for the CSP Option Dashboard: evaluation rows, the Eq. 17 matrix,
// recommendations under each objective, and guard construction.
#include <gtest/gtest.h>

#include "core/dashboard.hpp"
#include "harvey/simulation.hpp"

namespace hemo::core {
namespace {

class DashboardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<const cluster::InstanceProfile*> profiles = {
        &cluster::instance_by_abbrev("TRC"),
        &cluster::instance_by_abbrev("CSP-2"),
        &cluster::instance_by_abbrev("CSP-2 EC"),
    };
    dashboard_ = new Dashboard(std::move(profiles));

    harvey::SimulationOptions opts;
    opts.solver.tau = 0.8;
    harvey::Simulation sim(geometry::make_aorta({}), opts);
    const std::vector<index_t> counts = {2, 4, 8, 16, 32, 64};
    workload_ = new WorkloadCalibration(calibrate_workload(sim, counts, 36));
  }

  static void TearDownTestSuite() {
    delete dashboard_;
    delete workload_;
    dashboard_ = nullptr;
    workload_ = nullptr;
  }

  static Dashboard* dashboard_;
  static WorkloadCalibration* workload_;
};

Dashboard* DashboardTest::dashboard_ = nullptr;
WorkloadCalibration* DashboardTest::workload_ = nullptr;

TEST_F(DashboardTest, EvaluatesEveryInstanceAtEveryCoreCount) {
  const std::vector<index_t> cores = {36, 144};
  const auto rows = dashboard_->evaluate(*workload_, JobSpec{10000}, cores);
  EXPECT_EQ(rows.size(), 6u);  // 3 instances x 2 core counts
  for (const auto& row : rows) {
    EXPECT_GT(row.prediction.mflups.value(), 0.0);
    EXPECT_GT(row.time_to_solution_s.value(), 0.0);
    EXPECT_GT(row.total_dollars.value(), 0.0);
    EXPECT_GT(row.mflups_per_dollar_hour.value(), 0.0);
    EXPECT_GE(row.n_nodes, 1);
  }
}

TEST_F(DashboardTest, RejectsZeroStepJobs) {
  const std::vector<index_t> cores = {36};
  EXPECT_THROW((void)dashboard_->evaluate(*workload_, JobSpec{0}, cores),
               PreconditionError);
}

TEST_F(DashboardTest, RelativeValueMatrixHasUnitDiagonalAndReciprocity) {
  const std::vector<index_t> cores = {144};
  const auto rows = dashboard_->evaluate(*workload_, JobSpec{10000}, cores);
  const auto m = Dashboard::relative_value_matrix(rows);
  ASSERT_EQ(m.size(), rows.size());
  for (std::size_t b = 0; b < m.size(); ++b) {
    EXPECT_DOUBLE_EQ(m[b][b], 1.0);
    for (std::size_t a = 0; a < m.size(); ++a) {
      EXPECT_NEAR(m[b][a] * m[a][b], 1.0, 1e-9);
    }
  }
}

TEST_F(DashboardTest, EcBeatsNoEcBeatsTrcAtScale) {
  // The ordering and magnitudes of the paper's Fig. 11 heatmap at 2048
  // cores: the aorta there is a patient-scale high-resolution lattice, so
  // evaluate the model on a refined version of the calibrated anatomy.
  const WorkloadCalibration hires = scale_resolution(*workload_, 256.0);
  const std::vector<index_t> cores = {2048};
  const auto rows = dashboard_->evaluate(hires, JobSpec{10000}, cores);
  ASSERT_EQ(rows.size(), 3u);
  real_t trc = 0, csp2 = 0, ec = 0;
  for (const auto& row : rows) {
    if (row.instance == "TRC") trc = row.prediction.mflups.value();
    if (row.instance == "CSP-2") csp2 = row.prediction.mflups.value();
    if (row.instance == "CSP-2 EC") ec = row.prediction.mflups.value();
  }
  EXPECT_GT(ec, csp2);
  EXPECT_GT(csp2, trc);
  // Paper Fig. 11: r(CSP-2, TRC) = 1.2323, r(EC, TRC) = 1.3733,
  // r(EC, CSP-2) = 1.1144. Require the same ratios within ~15 %.
  EXPECT_NEAR(csp2 / trc, 1.2323, 0.19);
  EXPECT_NEAR(ec / trc, 1.3733, 0.21);
  EXPECT_NEAR(ec / csp2, 1.1144, 0.17);
}

TEST_F(DashboardTest, RecommendationsFollowObjectives) {
  const std::vector<index_t> cores = {36, 144};
  const auto rows = dashboard_->evaluate(*workload_, JobSpec{50000}, cores);

  const auto fastest =
      Dashboard::recommend(rows, Objective::kMaxThroughput);
  ASSERT_TRUE(fastest.has_value());
  for (const auto& row : rows) {
    EXPECT_LE(row.prediction.mflups.value(),
              fastest->prediction.mflups.value());
  }

  const auto cheapest = Dashboard::recommend(rows, Objective::kMinCost);
  ASSERT_TRUE(cheapest.has_value());
  for (const auto& row : rows) {
    EXPECT_GE(row.total_dollars.value(), cheapest->total_dollars.value());
  }
}

TEST_F(DashboardTest, DeadlineObjectivePicksCheapestQualifying) {
  const std::vector<index_t> cores = {36, 144};
  const auto rows = dashboard_->evaluate(*workload_, JobSpec{50000}, cores);
  // A deadline everyone can meet: the pick must be the global cheapest.
  units::Seconds slowest;
  for (const auto& row : rows) {
    slowest = std::max(slowest, row.time_to_solution_s);
  }
  const auto within =
      Dashboard::recommend(rows, Objective::kDeadline, slowest * 2.0);
  const auto cheapest = Dashboard::recommend(rows, Objective::kMinCost);
  ASSERT_TRUE(within.has_value());
  EXPECT_DOUBLE_EQ(within->total_dollars.value(),
                   cheapest->total_dollars.value());
  // An impossible deadline yields no recommendation.
  EXPECT_FALSE(Dashboard::recommend(rows, Objective::kDeadline,
                                    units::Seconds(1e-9))
                   .has_value());
}

TEST_F(DashboardTest, RefinementScalesPredictions) {
  CampaignTracker tracker;
  tracker.record(Observation{"aorta", "CSP-2", 36, units::Mflups(125.0),
                             units::Mflups(100.0)});
  const std::vector<index_t> cores = {36};
  const auto raw = dashboard_->evaluate(*workload_, JobSpec{1000}, cores);
  const auto refined =
      dashboard_->evaluate(*workload_, JobSpec{1000}, cores,
                           tracker.correction_factor());
  ASSERT_EQ(raw.size(), refined.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_NEAR(refined[i].prediction.mflups.value(),
                raw[i].prediction.mflups.value() * 0.8, 1e-6);
    EXPECT_GT(refined[i].time_to_solution_s.value(),
              raw[i].time_to_solution_s.value());
  }
}

TEST_F(DashboardTest, GuardDerivesFromRow) {
  const std::vector<index_t> cores = {144};
  const auto rows = dashboard_->evaluate(*workload_, JobSpec{10000}, cores);
  const JobGuard guard = Dashboard::make_guard(rows.front(), 0.10);
  EXPECT_DOUBLE_EQ(guard.predicted_seconds.value(),
                   rows.front().time_to_solution_s.value());
  EXPECT_GT(guard.max_dollars().value(), 0.0);
  EXPECT_NEAR(guard.max_seconds().value(),
              rows.front().time_to_solution_s.value() * 1.1, 1e-9);
}

}  // namespace
}  // namespace hemo::core
