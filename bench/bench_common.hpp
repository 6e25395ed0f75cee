// Shared setup for the table/figure reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper; this
// header centralizes the rank ladders, calibration plumbing and the JSON
// benches' flags so the binaries stay focused on their output. The
// standard geometries are geometry::make_named.
#pragma once

#include <algorithm>
#include <cstdlib>
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

/// Prints the error the JSON benches give an unknown flag or a flag value
/// they cannot use, and exits 2.
[[noreturn]] inline void reject_argument(std::string_view arg) {
  std::cerr << "unknown argument: " << arg << "\n";
  std::exit(2);
}

/// The flags both JSON benches take, each given as `--name=value`.
struct JsonBenchOptions {
  std::string geometry = "cylinder";
  std::string out;
  index_t repetitions = 3;
  double min_time = 0.2;
  bool small = false;

  /// Reads `arg` when it is one of these flags and returns true; returns
  /// false for any other argument. A value that does not read in full or
  /// is out of range ends in reject_argument.
  bool read(std::string_view arg) {
    if (arg == "--small") {
      small = true;
    } else if (const auto name = flag_value(arg, "--geometry=")) {
      if (std::ranges::find(geometry::names(), *name) ==
          geometry::names().end()) {
        reject_argument(arg);
      }
      geometry = *name;
    } else if (const auto path = flag_value(arg, "--out=")) {
      out = *path;
    } else if (const auto reps = flag_value(arg, "--repetitions=")) {
      repetitions = read_number<index_t>(*reps).value_or(0);
      if (repetitions < 1) reject_argument(arg);
    } else if (const auto secs = flag_value(arg, "--min-time=")) {
      min_time = read_number<double>(*secs).value_or(0.0);
      if (min_time <= 0.0) reject_argument(arg);
    } else {
      return false;
    }
    return true;
  }

  /// The named geometry; --small shrinks the cylinder and the cerebral tree.
  [[nodiscard]] geometry::Geometry build_geometry() const {
    if (small && geometry == "cylinder") {
      return geometry::make_cylinder({.radius = 6, .length = 40});
    }
    if (small && geometry == "cerebral") {
      return geometry::make_cerebral({.depth = 4});
    }
    return geometry::make_named(geometry);
  }

  /// The text after `prefix` in `arg`; nothing when `arg` has another
  /// prefix.
  static std::optional<std::string_view> flag_value(std::string_view arg,
                                                    std::string_view prefix) {
    if (!arg.starts_with(prefix)) return std::nullopt;
    return arg.substr(prefix.size());
  }
};

/// `s` with quotes and backslashes escaped for a JSON string.
inline std::string json_escape(std::string_view s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

/// Prints the standard bench header.
inline void print_header(const std::string& id, const std::string& what) {
  std::cout << "==========================================================\n"
            << id << ": " << what << "\n"
            << "==========================================================\n";
}

}  // namespace hemo::bench
