// Shared setup for the table/figure reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper; this
// header centralizes the standard geometries, rank ladders, and
// calibration plumbing so the binaries stay focused on their output.
#pragma once

#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/calibration.hpp"
#include "core/dashboard.hpp"
#include "core/models.hpp"
#include "harvey/simulation.hpp"
#include "obs/log.hpp"
#include "proxy/proxy_app.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace hemo::bench {

/// The benchmark geometries, sized so full numerics and 2048-way
/// decompositions both stay tractable in this environment.
inline geometry::Geometry make_geometry(const std::string& name) {
  if (name == "cylinder") {
    return geometry::make_cylinder({.radius = 10, .length = 80});
  }
  if (name == "aorta") {
    return geometry::make_aorta({});
  }
  if (name == "cerebral") {
    return geometry::make_cerebral({.depth = 5});
  }
  throw PreconditionError("unknown benchmark geometry: " + name);
}

inline const std::vector<std::string>& geometry_names() {
  static const std::vector<std::string> names = {"cylinder", "aorta",
                                                 "cerebral"};
  return names;
}

/// The five systems of the paper's Table I (excluding the hyperthreaded
/// STREAM-only variant).
inline const std::vector<std::string>& system_abbrevs() {
  static const std::vector<std::string> names = {
      "TRC", "CSP-1", "CSP-2 Small", "CSP-2 EC", "CSP-2"};
  return names;
}

/// Rank ladder for strong-scaling plots, clipped to a system's tested
/// allocation size.
inline std::vector<index_t> rank_ladder(const cluster::InstanceProfile& p) {
  std::vector<index_t> ladder;
  for (index_t n = 1; n <= p.total_cores && n <= 512; n *= 2) {
    ladder.push_back(n);
  }
  if (ladder.back() != std::min<index_t>(p.total_cores, 512)) {
    ladder.push_back(std::min<index_t>(p.total_cores, 512));
  }
  return ladder;
}

inline harvey::SimulationOptions default_options() {
  harvey::SimulationOptions opts;
  opts.solver.tau = 0.8;
  return opts;
}

/// Caches instance calibrations across a bench run.
class CalibrationCache {
 public:
  const core::InstanceCalibration& get(const std::string& abbrev) {
    auto it = cache_.find(abbrev);
    if (it == cache_.end()) {
      HEMO_LOG_INFO("calibrating %s ...", abbrev.c_str());
      it = cache_
               .emplace(abbrev, core::calibrate_instance(
                                    cluster::instance_by_abbrev(abbrev)))
               .first;
    }
    return it->second;
  }

 private:
  std::map<std::string, core::InstanceCalibration> cache_;
};

/// The number after `prefix` in a `--name=value` argument, read in full;
/// nothing when `arg` has another prefix or the value does not parse.
template <typename T>
std::optional<T> flag_number(std::string_view arg, std::string_view prefix) {
  if (!arg.starts_with(prefix)) return std::nullopt;
  return read_number<T>(arg.substr(prefix.size()));
}

/// Prints the standard bench header.
inline void print_header(const std::string& id, const std::string& what) {
  std::cout << "==========================================================\n"
            << id << ": " << what << "\n"
            << "==========================================================\n";
}

}  // namespace hemo::bench
