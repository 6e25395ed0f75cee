// Seeded nemesis schedules: named fault storms driven through the engine.
//
// A NemesisSchedule is everything one campaign-under-faults run needs —
// the jobs, the fault-injection mix, the engine seed and limits — and is
// generated from a named storm preset plus an RNG stream, so a failing
// schedule replays from (storm, seed, case index) alone and shrinks like
// any other property input (check/property.hpp). The storms are the
// Maelstrom-style adversaries of specs/executor_protocol.md §1: each one
// concentrates on the protocol transition it stresses hardest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/guard.hpp"
#include "sched/job.hpp"
#include "util/rng.hpp"

namespace hemo::nemesis {

/// One seeded campaign-under-faults scenario.
struct NemesisSchedule {
  std::string storm;  ///< preset name (see storm_names())
  std::vector<sched::CampaignJobSpec> jobs;
  sched::FaultInjection faults;
  std::uint64_t engine_seed = 0;
  /// Engine / scheduler knobs, mirrored into EngineConfig and the
  /// check-scale scheduler (harness.cpp).
  real_t guard_tolerance = 0.25;
  real_t spot_preemptions_per_hour = 8.0;
  index_t max_attempts = 4;
  index_t chunks_per_attempt = 10;
};

/// The storm presets, in deterministic order:
///   calm              no faults (baseline: the protocol must hold anyway)
///   preemption_storm  spot capacity reclaimed several times per attempt
///   corruption_burst  preemptions whose checkpoint reads come back bad
///   overrun_storm     degraded nodes that trip the overrun guard
///   crash_storm       workers dying mid-chunk on any tenancy
///   mixed_storm       a random combination of all fault classes
[[nodiscard]] const std::vector<std::string>& storm_names();

/// A batch of `count` campaign jobs against `workload`: randomized step
/// counts, spot tenancy, and ids 1..count.
[[nodiscard]] std::vector<sched::CampaignJobSpec> gen_job_specs(
    Xoshiro256& rng, index_t count, const std::string& workload);

/// A randomized fault-injection mix (mixed_storm): each fault class is
/// enabled with probability 1/2, rates drawn in ranges that reliably
/// force requeues at test scale while still letting most jobs finish.
[[nodiscard]] sched::FaultInjection gen_fault_injection(Xoshiro256& rng);

/// Generates one `storm` schedule from the RNG stream. Throws
/// PreconditionError for an unknown storm name.
[[nodiscard]] NemesisSchedule gen_schedule(const std::string& storm,
                                           Xoshiro256& rng);

/// One-line rendering (property counterexamples, CI artifacts).
[[nodiscard]] std::string describe_schedule(const NemesisSchedule& s);

/// Greedy shrink candidates, most aggressive first: drop the last job,
/// disable one fault class, then halve the largest job's timesteps.
[[nodiscard]] std::vector<NemesisSchedule> shrink_schedule(
    const NemesisSchedule& s);

}  // namespace hemo::nemesis
