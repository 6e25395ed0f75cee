#include "sched/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "cluster/virtual_cluster.hpp"
#include "core/models.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace hemo::sched {

namespace {

/// One feasible option during placement (row already tenancy-adjusted).
struct Candidate {
  core::DashboardRow row;
  bool spot = false;
  bool fits_now = false;
};

/// FNV-1a over a string: a seed component that is stable across runs and
/// platforms (std::hash makes no such promise).
std::uint64_t stable_hash(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

CampaignScheduler::CampaignScheduler(
    std::vector<const cluster::InstanceProfile*> profiles,
    SchedulerConfig config)
    : config_(std::move(config)), dashboard_(std::move(profiles)) {
  HEMO_REQUIRE(!config_.core_counts.empty(),
               "scheduler needs at least one candidate core count");
  HEMO_REQUIRE(config_.guard_tolerance >= 0.0,
               "guard tolerance must be non-negative");
  for (const core::InstanceOption& opt : dashboard_.options()) {
    if (std::any_of(pools_.begin(), pools_.end(), [&](const Pool& pool) {
          return pool.profile->abbrev == opt.profile->abbrev;
        })) {
      continue;
    }
    Pool pool;
    pool.profile = opt.profile;
    pool.total_nodes = opt.profile->nodes();
    pools_.push_back(pool);
  }
}

void CampaignScheduler::register_workload(const std::string& name,
                                          geometry::Geometry geometry,
                                          std::span<const index_t> cal_counts) {
  HEMO_REQUIRE(!workloads_.contains(name),
               "workload already registered: " + name);
  harvey::SimulationOptions options;
  options.solver.tau = 0.8;
  Workload w;
  w.sim = std::make_unique<harvey::Simulation>(std::move(geometry), options);

  index_t max_cpn = 1;
  for (const Pool& pool : pools_) {
    max_cpn = std::max(max_cpn, pool.profile->cores_per_node);
  }
  w.calibration = core::calibrate_workload(*w.sim, cal_counts, max_cpn);
  w.calibration.name = name;

  // Prebuild every candidate plan now, single-threaded, so the concurrent
  // executor only reads (Simulation's plan cache is not thread-safe).
  for (const Pool& pool : pools_) {
    for (index_t cores : config_.core_counts) {
      const index_t cpn = std::min(cores, pool.profile->cores_per_node);
      const index_t nodes = (cores + cpn - 1) / cpn;
      if (nodes > pool.total_nodes) continue;  // never placeable here
      w.plans[{pool.profile->abbrev, cores}] = &w.sim->plan(cores, cpn);
    }
  }

  auto [it, inserted] = workloads_.emplace(name, std::move(w));
  if (config_.pilot_steps > 0) run_pilots(name, it->second);
}

void CampaignScheduler::run_pilots(const std::string& name,
                                   const Workload& workload) {
  // One short measurement per instance at the smallest placeable
  // allocation, recorded against the raw model prediction: the same warm
  // start the paper's users perform before arming a 10 % guard
  // (examples/cost_guard.cpp) — without it, every cold prediction
  // overshoots by the hidden efficiency factor and the first wave of jobs
  // overrun-requeues.
  for (const core::InstanceOption& opt : dashboard_.options()) {
    const cluster::WorkloadPlan* plan = nullptr;
    index_t cores = 0;
    for (index_t c : config_.core_counts) {
      const auto it = workload.plans.find({opt.profile->abbrev, c});
      if (it != workload.plans.end()) {
        plan = it->second;
        cores = c;
        break;
      }
    }
    if (plan == nullptr) continue;  // instance too small for any candidate

    Xoshiro256 rng(
        hash_seed(config_.pilot_seed, stable_hash(opt.profile->abbrev)));
    const cluster::MeasurementContext when{
        rng.below(7), rng.below(24), rng.below(1 << 20)};
    const cluster::VirtualCluster vc(*opt.profile);
    const auto measured = vc.execute(*plan, config_.pilot_steps, when);
    const auto predicted = core::predict_general(
        workload.calibration, opt.calibration, cores,
        std::min(cores, opt.profile->cores_per_node));
    tracker_.record(core::Observation{name, opt.profile->abbrev, cores,
                                      predicted.mflups, measured.mflups});
  }
}

const CampaignScheduler::Workload& CampaignScheduler::workload_for(
    const std::string& name) const {
  const auto it = workloads_.find(name);
  HEMO_REQUIRE(it != workloads_.end(), "unregistered workload: " + name);
  return it->second;
}

const CampaignScheduler::Resolution& CampaignScheduler::resolution_for(
    const Workload& workload, const CampaignJobSpec& spec) const {
  Resolutions& cache = *workload.resolutions;
  const MutexLock lock(cache.mutex);
  std::unique_ptr<const Resolution>& entry =
      cache.by_factor[spec.resolution_factor];
  if (entry == nullptr) {
    std::optional<core::WorkloadCalibration> scaled;
    if (spec.resolution_factor != 1.0) {
      scaled = core::scale_resolution(workload.calibration,
                                      spec.resolution_factor);
    }
    auto r = std::make_unique<Resolution>();
    r->key = workload_key(spec);
    r->candidates = dashboard_.predict(scaled ? *scaled : workload.calibration,
                                       config_.core_counts);
    for (const core::OptionPrediction& c : r->candidates) {
      r->pool_of.push_back(pool_index(c.profile->abbrev));
    }
    entry = std::move(r);
  }
  return *entry;
}

PlacementDecision CampaignScheduler::place(
    const PlacementRequest& request) const {
  HEMO_REQUIRE(request.spec != nullptr, "placement request without a spec");
  HEMO_REQUIRE(request.remaining_steps >= 1,
               "placement request with no remaining work");
  const CampaignJobSpec& spec = *request.spec;
  const Resolution& resolution =
      resolution_for(workload_for(spec.geometry), spec);
  // Phase-2 refinement, keyed per (geometry, resolution): the model's error
  // mix shifts with the memory/halo balance, so a resolution-scaled job is
  // corrected from observations at its own key once any exist. Before the
  // first measurement at a key the campaign-wide pool is the best guess —
  // an overrun requeue then self-heals, because the killed attempt records
  // the keyed observation the retry is placed with.
  const real_t correction = tracker_.correction_factor_for(resolution.key);
  // Telemetry labels are heap strings: build them only for a live registry.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const bool telemetry = metrics.enabled();
  if (telemetry) {
    metrics.set("sched_correction_factor", correction,
                {{"workload", resolution.key}});
  }
  const auto rows =
      core::Dashboard::price(resolution.candidates,
                             core::JobSpec{request.remaining_steps},
                             correction);

  const auto reject = [&metrics, telemetry](const char* reason) {
    if (!telemetry) return;
    metrics.add("sched_candidates_rejected_total", 1.0,
                {{"reason", reason}});
  };
  const auto count_outcome = [&metrics, telemetry](const char* outcome) {
    if (!telemetry) return;
    metrics.add("sched_place_total", 1.0, {{"outcome", outcome}});
  };
  PlacementDecision d;
  d.workload_key = &resolution.key;
  d.correction = correction;
  d.wait_thresholds.assign(pools_.size(),
                           std::numeric_limits<index_t>::max());
  std::vector<Candidate> feasible;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const core::DashboardRow& raw = rows[i];
    const std::size_t pool_index = resolution.pool_of[i];
    const Pool& pool = pools_[pool_index];
    if (raw.n_nodes > pool.total_nodes) {  // allocation too large
      reject("too_large");
      continue;
    }

    Candidate c;
    c.spot = spec.allow_spot;
    c.row = c.spot ? core::apply_spot_pricing(raw, config_.spot) : raw;
    if (request.remaining_deadline_s.value() > 0.0 &&
        c.row.time_to_solution_s > request.remaining_deadline_s) {
      reject("deadline");
      continue;
    }
    if (request.remaining_budget.value() > 0.0) {
      // Budget must cover the guard ceiling, not just the point estimate:
      // the job is allowed to run tolerance-% long before the hard stop.
      const units::Dollars ceiling =
          c.row.total_dollars * (1.0 + config_.guard_tolerance);
      if (ceiling > request.remaining_budget) {
        reject("budget");
        continue;
      }
    }
    c.fits_now = raw.n_nodes <= pool.total_nodes - pool.in_use;
    index_t& threshold = d.wait_thresholds[pool_index];
    threshold = std::min(threshold, raw.n_nodes);
    feasible.push_back(std::move(c));
  }

  if (feasible.empty()) {
    count_outcome("infeasible");
    d.kind = PlacementDecision::Kind::kInfeasible;
    d.reason = "no (instance, core count) option satisfies the job's "
               "deadline/budget constraints";
    return d;
  }

  std::vector<const Candidate*> open;
  for (const Candidate& c : feasible) {
    if (c.fits_now) open.push_back(&c);
  }
  if (open.empty()) {
    count_outcome("wait");
    d.kind = PlacementDecision::Kind::kWait;
    return d;
  }

  const Candidate* chosen = open.front();
  switch (config_.policy) {
    case Policy::kModelDriven: {
      std::vector<core::DashboardRow> open_rows;
      open_rows.reserve(open.size());
      for (const Candidate* c : open) open_rows.push_back(c->row);
      const core::Objective objective =
          config_.objective == core::Objective::kDeadline &&
                  request.remaining_deadline_s.value() <= 0.0
              ? core::Objective::kMinCost
              : config_.objective;
      const auto best = core::Dashboard::recommend(
          open_rows, objective, request.remaining_deadline_s);
      // `open_rows` is non-empty and every row meets the (already
      // filtered) deadline, so a recommendation always exists.
      for (const Candidate* c : open) {
        if (c->row.instance == best->instance &&
            c->row.n_tasks == best->n_tasks) {
          chosen = c;
          break;
        }
      }
      break;
    }
    case Policy::kCheapestRate:
      for (const Candidate* c : open) {
        if (c->row.cost_rate_per_hour < chosen->row.cost_rate_per_hour ||
            (c->row.cost_rate_per_hour == chosen->row.cost_rate_per_hour &&
             c->row.n_tasks < chosen->row.n_tasks)) {
          chosen = c;
        }
      }
      break;
    case Policy::kBiggest:
      for (const Candidate* c : open) {
        if (c->row.n_tasks > chosen->row.n_tasks ||
            (c->row.n_tasks == chosen->row.n_tasks &&
             c->row.cost_rate_per_hour > chosen->row.cost_rate_per_hour)) {
          chosen = c;
        }
      }
      break;
  }

  count_outcome("placed");
  if (telemetry) {
    metrics.add("sched_placements_total", 1.0,
                {{"instance", chosen->row.instance},
                 {"spot", chosen->spot ? "true" : "false"}});
  }
  d.kind = PlacementDecision::Kind::kPlaced;
  d.placement.instance = chosen->row.instance;
  d.placement.n_tasks = chosen->row.n_tasks;
  d.placement.n_nodes = chosen->row.n_nodes;
  d.placement.spot = chosen->spot;
  d.placement.predicted_seconds = chosen->row.time_to_solution_s;
  d.placement.predicted_mflups = chosen->row.prediction.mflups;
  d.placement.raw_mflups =
      units::Mflups(chosen->row.prediction.mflups.value() / correction);
  d.placement.cost_rate_per_hour = chosen->row.cost_rate_per_hour;
  return d;
}

bool CampaignScheduler::still_holds(const PlacementDecision& decision) const {
  HEMO_REQUIRE(decision.kind != PlacementDecision::Kind::kPlaced &&
                   decision.workload_key != nullptr &&
                   decision.wait_thresholds.size() == pools_.size(),
               "still_holds needs a kWait or kInfeasible decision");
  // A failed deadline/budget filter depends on the request and the
  // correction alone; a feasible candidate that does not fit starts to fit
  // only once its pool frees at least its nodes.
  if (tracker_.correction_factor_for(*decision.workload_key) !=
      decision.correction) {
    return false;
  }
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (pools_[i].total_nodes - pools_[i].in_use >=
        decision.wait_thresholds[i]) {
      return false;
    }
  }
  return true;
}

std::size_t CampaignScheduler::pool_index(const std::string& instance) const {
  const auto it = std::find_if(
      pools_.begin(), pools_.end(),
      [&](const Pool& pool) { return pool.profile->abbrev == instance; });
  HEMO_REQUIRE(it != pools_.end(), "unknown instance: " + instance);
  return static_cast<std::size_t>(it - pools_.begin());
}

void CampaignScheduler::reserve(const Placement& placement) {
  Pool& pool = pools_[pool_index(placement.instance)];
  HEMO_REQUIRE(pool.in_use + placement.n_nodes <= pool.total_nodes,
               "reservation exceeds pool capacity");
  pool.in_use += placement.n_nodes;
}

void CampaignScheduler::release(const Placement& placement) {
  Pool& pool = pools_[pool_index(placement.instance)];
  HEMO_REQUIRE(pool.in_use >= placement.n_nodes,
               "releasing more nodes than reserved");
  pool.in_use -= placement.n_nodes;
}

index_t CampaignScheduler::free_nodes(const std::string& instance) const {
  const Pool& pool = pools_[pool_index(instance)];
  return pool.total_nodes - pool.in_use;
}

const cluster::WorkloadPlan& CampaignScheduler::plan_for(
    const std::string& geometry, const std::string& instance,
    index_t n_tasks) const {
  const Workload& w = workload_for(geometry);
  const auto it = w.plans.find({instance, n_tasks});
  HEMO_REQUIRE(it != w.plans.end(),
               "no prebuilt plan for " + geometry + " on " + instance);
  return *it->second;
}

const cluster::InstanceProfile& CampaignScheduler::profile_for(
    const std::string& instance) const {
  return *pools_[pool_index(instance)].profile;
}

index_t CampaignScheduler::points_of(const std::string& geometry) const {
  return workload_for(geometry).calibration.total_points;
}

}  // namespace hemo::sched
