#include "nemesis/nemesis.hpp"

#include <algorithm>
#include <sstream>

namespace hemo::nemesis {

const std::vector<std::string>& storm_names() {
  static const std::vector<std::string> names = {
      "calm",          "preemption_storm", "corruption_burst",
      "overrun_storm", "crash_storm",      "mixed_storm"};
  return names;
}

std::vector<sched::CampaignJobSpec> gen_job_specs(
    Xoshiro256& rng, index_t count, const std::string& workload) {
  HEMO_REQUIRE(count >= 1, "job batch needs at least one job");
  std::vector<sched::CampaignJobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (index_t i = 0; i < count; ++i) {
    sched::CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = workload;
    spec.timesteps = 200 + 100 * rng.below(9);  // 200..1000 steps
    spec.allow_spot = rng.uniform() < 0.4;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

sched::FaultInjection gen_fault_injection(Xoshiro256& rng) {
  sched::FaultInjection faults;
  if (rng.uniform() < 0.5) faults.slowdown_factor = rng.uniform(1.4, 1.9);
  if (rng.uniform() < 0.5) {
    faults.extra_preemption_probability = rng.uniform(0.05, 0.35);
  }
  if (rng.uniform() < 0.5) {
    faults.checkpoint_corruption_rate = rng.uniform(0.1, 0.5);
  }
  if (rng.uniform() < 0.5) {
    faults.worker_crash_probability = rng.uniform(0.02, 0.1);
  }
  return faults;
}

NemesisSchedule gen_schedule(const std::string& storm, Xoshiro256& rng) {
  NemesisSchedule s;
  s.storm = storm;
  s.jobs = gen_job_specs(rng, 3 + rng.below(3), "cylinder");
  s.engine_seed = rng.next();

  if (storm == "calm") {
    // No faults: the baseline every invariant must hold under anyway.
  } else if (storm == "preemption_storm") {
    s.faults.extra_preemption_probability = rng.uniform(0.25, 0.6);
    s.spot_preemptions_per_hour = 30.0;
    for (auto& job : s.jobs) job.allow_spot = true;
  } else if (storm == "corruption_burst") {
    // Corruption only bites on a preemption resume, so pair the two.
    s.faults.extra_preemption_probability = rng.uniform(0.15, 0.4);
    s.faults.checkpoint_corruption_rate = rng.uniform(0.4, 0.9);
    for (auto& job : s.jobs) job.allow_spot = true;
  } else if (storm == "overrun_storm") {
    s.faults.slowdown_factor = rng.uniform(1.5, 2.0);
    // Spot pricing folds expected preemption losses into the predicted
    // wall time, widening the guard band past the injected slowdown;
    // keep the storm on-demand so it tests the pace guard.
    for (auto& job : s.jobs) job.allow_spot = false;
  } else if (storm == "crash_storm") {
    s.faults.worker_crash_probability = rng.uniform(0.08, 0.2);
  } else if (storm == "mixed_storm") {
    s.faults = gen_fault_injection(rng);
    if (!s.faults.any()) {
      s.faults.extra_preemption_probability = 0.2;
    }
    if (s.faults.slowdown_factor >= 1.4) {
      for (auto& job : s.jobs) job.allow_spot = false;
    }
  } else {
    HEMO_REQUIRE(false, "unknown nemesis storm: " + storm);
  }
  return s;
}

std::string describe_schedule(const NemesisSchedule& s) {
  std::ostringstream os;
  os << s.storm << " jobs=" << s.jobs.size() << " seed=" << s.engine_seed
     << " steps=[";
  for (std::size_t i = 0; i < s.jobs.size(); ++i) {
    os << (i ? "," : "") << s.jobs[i].timesteps
       << (s.jobs[i].allow_spot ? "s" : "");
  }
  os << ']';
  if (s.faults.any()) {
    os << " faults{x" << s.faults.slowdown_factor << ",p"
       << s.faults.extra_preemption_probability << ",c"
       << s.faults.checkpoint_corruption_rate << ",w"
       << s.faults.worker_crash_probability << '}';
  }
  return os.str();
}

std::vector<NemesisSchedule> shrink_schedule(const NemesisSchedule& s) {
  std::vector<NemesisSchedule> out;
  if (s.jobs.size() > 1) {
    NemesisSchedule c = s;
    c.jobs.pop_back();
    out.push_back(std::move(c));
  }
  if (s.faults.slowdown_factor != 1.0) {
    NemesisSchedule c = s;
    c.faults.slowdown_factor = 1.0;
    out.push_back(std::move(c));
  }
  if (s.faults.extra_preemption_probability > 0.0) {
    NemesisSchedule c = s;
    c.faults.extra_preemption_probability = 0.0;
    out.push_back(std::move(c));
  }
  if (s.faults.checkpoint_corruption_rate > 0.0) {
    NemesisSchedule c = s;
    c.faults.checkpoint_corruption_rate = 0.0;
    out.push_back(std::move(c));
  }
  if (s.faults.worker_crash_probability > 0.0) {
    NemesisSchedule c = s;
    c.faults.worker_crash_probability = 0.0;
    out.push_back(std::move(c));
  }
  // Halve the largest job's step count (keeps the generator's 100-step
  // granularity so shrunk schedules stay readable).
  std::size_t largest = 0;
  for (std::size_t i = 1; i < s.jobs.size(); ++i) {
    if (s.jobs[i].timesteps > s.jobs[largest].timesteps) largest = i;
  }
  if (!s.jobs.empty() && s.jobs[largest].timesteps >= 200) {
    NemesisSchedule c = s;
    c.jobs[largest].timesteps =
        std::max<index_t>(100, (c.jobs[largest].timesteps / 200) * 100);
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace hemo::nemesis
