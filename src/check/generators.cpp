#include "check/generators.hpp"

namespace hemo::check {

const std::vector<std::string>& geometry_families() {
  static const std::vector<std::string> families = {
      "cylinder", "aorta", "cerebral", "stenosis", "aneurysm"};
  return families;
}

geometry::Geometry gen_geometry(Xoshiro256& rng) {
  const std::string& family = pick(rng, geometry_families());
  if (family == "cylinder") {
    geometry::CylinderParams p;
    p.radius = 4 + rng.below(5);   // 4..8 voxels
    p.length = 24 + rng.below(41); // 24..64 voxels
    return geometry::make_cylinder(p);
  }
  if (family == "aorta") {
    geometry::AortaParams p;
    p.vessel_radius = rng.uniform(4.0, 7.0);
    p.arch_radius = rng.uniform(14.0, 20.0);
    p.height = 56 + rng.below(25);  // 56..80 voxels
    p.branch_radius = rng.uniform(2.0, 3.0);
    return geometry::make_aorta(p);
  }
  if (family == "cerebral") {
    geometry::CerebralParams p;
    p.root_radius = rng.uniform(3.0, 5.0);
    p.depth = 3 + rng.below(2);  // 3..4 levels
    p.segment_length = rng.uniform(14.0, 22.0);
    p.seed = rng.next();
    return geometry::make_cerebral(p);
  }
  if (family == "stenosis") {
    geometry::StenosisParams p;
    p.radius = 5 + rng.below(4);   // 5..8 voxels
    p.length = 32 + rng.below(25); // 32..56 voxels
    p.severity = rng.uniform(0.3, 0.6);
    p.throat_length = rng.uniform(6.0, 12.0);
    return geometry::make_stenosis(p);
  }
  geometry::AneurysmParams p;
  p.radius = 4 + rng.below(4);   // 4..7 voxels
  p.length = 32 + rng.below(25); // 32..56 voxels
  p.dilation = rng.uniform(0.5, 1.0);
  p.bulge_length = rng.uniform(10.0, 18.0);
  return geometry::make_aneurysm(p);
}

std::vector<const cluster::InstanceProfile*> cpu_catalog() {
  std::vector<const cluster::InstanceProfile*> cpus;
  for (const cluster::InstanceProfile& p : cluster::default_catalog()) {
    if (p.gpu.has_value()) continue;
    if (p.abbrev == "CSP-2 Hyp.") continue;  // hyperthreaded core math
    cpus.push_back(&p);
  }
  HEMO_REQUIRE(!cpus.empty(), "default catalog has no plain CPU profiles");
  return cpus;
}

const cluster::InstanceProfile& gen_cpu_instance(Xoshiro256& rng) {
  return *pick(rng, cpu_catalog());
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

std::vector<core::Observation> gen_observations(Xoshiro256& rng,
                                                index_t count) {
  HEMO_REQUIRE(count >= 3, "observation batch needs at least three entries");
  const std::vector<std::string>& families = geometry_families();
  const std::vector<index_t> tasks = {16, 36, 72, 144};
  std::vector<core::Observation> out;
  out.reserve(static_cast<std::size_t>(count));
  for (index_t i = 0; i < count; ++i) {
    // The first three entries name three distinct families.
    std::string key = i < 3 ? families[static_cast<std::size_t>(i)]
                            : pick(rng, families);
    if (rng.below(3) == 0) key += "@x8";
    const real_t predicted = rng.uniform(50.0, 5000.0);
    out.push_back(core::Observation{
        std::move(key), gen_cpu_instance(rng).abbrev, pick(rng, tasks),
        units::Mflups(predicted),
        units::Mflups(predicted * rng.uniform(0.3, 1.5))});
  }
  return out;
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

fit::TwoLineModel gen_two_line_model(Xoshiro256& rng) {
  fit::TwoLineModel m;
  m.a1 = rng.uniform(4000.0, 16000.0);        // steep MB/s per thread
  m.a2 = m.a1 * rng.uniform(0.02, 0.25);      // saturated slope << a1
  m.a3 = rng.uniform(4.0, 24.0);              // breakpoint in threads
  return m;
}

fit::CommModel gen_comm_model(Xoshiro256& rng) {
  fit::CommModel m;
  m.bandwidth = rng.uniform(0.5e9, 16e9);     // bytes/s
  m.latency = rng.uniform(1e-6, 80e-6);       // seconds
  return m;
}

fit::ImbalanceModel gen_imbalance_model(Xoshiro256& rng) {
  fit::ImbalanceModel m;
  m.c1 = rng.uniform(0.01, 0.3);
  m.c2 = rng.uniform(0.05, 2.0);
  return m;
}

fit::EventCountModel gen_event_count_model(Xoshiro256& rng) {
  fit::EventCountModel m;
  m.k1 = rng.uniform(0.2, 4.0);
  m.k2 = rng.uniform(0.01, 1.0);
  return m;
}

}  // namespace hemo::check
