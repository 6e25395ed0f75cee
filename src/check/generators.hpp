// Seed-driven input generators for the validation harness.
//
// Every generator draws exclusively from the Xoshiro256 stream it is
// handed, so a case is reproduced from its seed alone (property.hpp keys
// per-case streams off hash_seed(config.seed, case_index)). Generators
// deliberately sample *small* instances of each domain object — the
// harness's value is breadth across the parameter space, not size.
#pragma once

#include <string>
#include <vector>

#include "cluster/instance.hpp"
#include "core/campaign.hpp"
#include "fit/linear.hpp"
#include "fit/log_models.hpp"
#include "fit/two_line.hpp"
#include "geometry/generators.hpp"
#include "util/rng.hpp"

namespace hemo::check {

/// Uniform pick from a non-empty list.
template <typename T>
[[nodiscard]] const T& pick(Xoshiro256& rng, const std::vector<T>& items) {
  HEMO_REQUIRE(!items.empty(), "pick from an empty list");
  return items[static_cast<std::size_t>(
      rng.below(static_cast<index_t>(items.size())))];
}

/// The five vessel families the generators sample from.
[[nodiscard]] const std::vector<std::string>& geometry_families();

/// A random small vessel geometry: family plus jittered shape parameters.
/// Sizes are kept test-scale (hundreds to a few thousand fluid points).
[[nodiscard]] geometry::Geometry gen_geometry(Xoshiro256& rng);

/// The CPU instance catalog the oracles run against (every non-GPU,
/// non-hyperthreaded profile of cluster::default_catalog()).
[[nodiscard]] std::vector<const cluster::InstanceProfile*> cpu_catalog();

/// Uniform pick from cpu_catalog().
[[nodiscard]] const cluster::InstanceProfile& gen_cpu_instance(
    Xoshiro256& rng);

/// `count` (>= 3) refinement observations over at least three workload
/// keys: geometry families, some at a refined resolution ("@x8"), on random
/// CPU instances, with measured/predicted ratios in [0.3, 1.5).
[[nodiscard]] std::vector<core::Observation> gen_observations(
    Xoshiro256& rng, index_t count);

/// Random model parameters in physically plausible ranges (used to test
/// fit recovery and oracle tolerance logic against known ground truth).
[[nodiscard]] fit::TwoLineModel gen_two_line_model(Xoshiro256& rng);
[[nodiscard]] fit::CommModel gen_comm_model(Xoshiro256& rng);
[[nodiscard]] fit::ImbalanceModel gen_imbalance_model(Xoshiro256& rng);
[[nodiscard]] fit::EventCountModel gen_event_count_model(Xoshiro256& rng);

}  // namespace hemo::check
