// Tests for the CSP Option Dashboard: evaluation rows, the Eq. 17 matrix,
// recommendations under each objective, and guard construction.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/dashboard.hpp"
#include "geometry/generators.hpp"
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

/// FNV-1a over the bits of every field of `rows`, in order.
std::uint64_t rows_digest(const std::vector<DashboardRow>& rows) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  const auto word = [&byte](std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(w >> (8 * i)));
  };
  const auto real = [&word](real_t v) {
    word(std::bit_cast<std::uint64_t>(v));
  };
  for (const DashboardRow& r : rows) {
    for (const char c : r.instance) byte(static_cast<unsigned char>(c));
    word(r.instance.size());
    word(static_cast<std::uint64_t>(r.n_tasks));
    word(static_cast<std::uint64_t>(r.n_nodes));
    const ModelPrediction& p = r.prediction;
    for (const units::Seconds s : {p.t_mem, p.t_comm, p.t_intra, p.t_inter,
                                   p.t_comm_bw, p.t_comm_lat, p.t_xfer,
                                   p.step_seconds}) {
      real(s.value());
    }
    real(p.mflups.value());
    real(r.time_to_solution_s.value());
    real(r.cost_rate_per_hour.value());
    real(r.total_dollars.value());
    real(r.mflups_per_dollar_hour.value());
  }
  return h;
}

// evaluate() is price(predict()): every row field keeps the bits the
// single-pass evaluation produced (digests pinned from it) at base and
// refined resolution, raw and corrected.
TEST(Dashboard, EvaluateIsPriceOfPredict) {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  const Dashboard dashboard(std::move(profiles));
  harvey::SimulationOptions opts;
  opts.solver.tau = 0.8;
  harvey::Simulation sim(geometry::make_cylinder({.radius = 10, .length = 80}),
                         opts);
  const std::vector<index_t> counts = {2, 4, 8, 16, 32};
  const WorkloadCalibration base = calibrate_workload(sim, counts, 40);
  const std::vector<index_t> cores = {16, 36, 72, 144};
  const JobSpec job{20000};

  struct Pinned {
    real_t resolution;
    real_t correction;
    std::uint64_t digest;
  };
  constexpr Pinned kPinned[] = {
      {1.0, 1.0, 0x63695bca64c79157ULL},
      {1.0, 0.73, 0xbde657d3394cab82ULL},
      {8.0, 1.0, 0x4dce7071fd09e3bcULL},
      {8.0, 0.73, 0x4f5c03c891b24b4fULL},
  };
  for (const Pinned& pinned : kPinned) {
    const WorkloadCalibration cal =
        pinned.resolution == 1.0 ? base
                                 : scale_resolution(base, pinned.resolution);
    const auto rows = dashboard.evaluate(cal, job, cores, pinned.correction);
    ASSERT_EQ(rows.size(), 20u);
    EXPECT_EQ(rows_digest(rows), pinned.digest)
        << "resolution " << pinned.resolution << ", correction "
        << pinned.correction;
    const auto priced =
        Dashboard::price(dashboard.predict(cal, cores), job, pinned.correction);
    EXPECT_EQ(rows_digest(priced), pinned.digest);
  }
}

}  // namespace
}  // namespace hemo::core
