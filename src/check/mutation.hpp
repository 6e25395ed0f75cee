// Mutation self-test: proof that the differential oracles have teeth.
//
// A tolerance-band oracle is only trustworthy if a genuinely wrong model
// would fail it. This suite perturbs one fitted coefficient at a time —
// directly in the OracleContext's calibrations, exactly where a fitting
// bug would land — and asserts the matching oracle now FAILS, then
// restores the coefficient and asserts the oracles pass again.
//
// The mutations are routed to the oracle that can structurally see them:
//  * memory slope a2 feeds both predictors identically (through
//    task_bandwidth_bytes_per_s), so model *agreement* is blind to it;
//    only the model-vs-MEASUREMENT oracle (virtual cluster uses the
//    profile's ground truth, not the fit) catches it;
//  * the fitted communication law (b, l) and the workload laws (k1, c1,
//    serial_bytes) feed only the generalized model — the direct model
//    reads raw PingPong tables and exact per-task byte counts — so the
//    model-AGREEMENT oracle catches those.
// Mutation factors are sized to the laws' sensitivity: k1 sits inside a
// log2, so it needs a far larger factor than the linear coefficients.
#pragma once

#include <string>
#include <vector>

#include "check/oracles.hpp"

namespace hemo::check {

/// One mutation's outcome.
struct MutationOutcome {
  std::string coefficient;  ///< e.g. "memory.a2 x4"
  std::string oracle;       ///< oracle expected to catch it
  bool detected = false;    ///< the oracle failed under the mutation
  std::string detail;       ///< the failing case (evidence), or why not
};

/// The whole suite's outcome.
struct MutationReport {
  /// Both model oracles pass on the unmutated context (precondition).
  bool baseline_passed = false;
  /// Both model oracles pass again after every mutation was restored.
  bool restored_passed = false;
  std::vector<MutationOutcome> outcomes;

  /// True when the baseline held, every mutation was detected, and the
  /// restore round-tripped.
  [[nodiscard]] bool all_detected() const;

  /// Multi-line human rendering.
  [[nodiscard]] std::string summary() const;
};

/// Runs every mutation against `ctx`. The context is perturbed in place
/// and restored before returning (also on the error path of a throwing
/// oracle). `config.cases` model-oracle cases are run per mutation.
[[nodiscard]] MutationReport run_mutation_suite(OracleContext& ctx,
                                                const PropertyConfig& config);

}  // namespace hemo::check
