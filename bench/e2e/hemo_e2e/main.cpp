// hemo_e2e — end-to-end benchmark program for HemoCloud's two product
// loops (`hemocloud_cli run` and `hemocloud_cli schedule`).
//
//   hemo_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--out <dir>]
//   hemo_e2e --self-test
//
// Workloads: cyl-small-r4, cyl-large-r4, campaign-burst, campaign-mixed.
// Progress goes to stderr; the last line of stdout is one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics at
// --trace 0, per-layer metrics at --trace 1) plus the host, within-run
// samples, deterministic outputs, output checks and layer sums. Exit code
// 0 when every output check passed, 1 when one failed, 2 on bad usage.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::cerr << "usage: hemo_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--out <dir>]\n"
               "       hemo_e2e --self-test\n"
               "workloads: cyl-small-r4 cyl-large-r4 campaign-burst "
               "campaign-mixed\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        options.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--out" && has_value) {
        options.out_dir = argv[++i];
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--self-test") {
        options.self_test = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }

  e2e::Result result;
  try {
    if (options.self_test) {
      options.workload = "self-test";
      e2e::self_test_cyl(result);
      e2e::self_test_campaign(result);
    } else if (e2e::is_cyl_workload(options.workload)) {
      if (!(options.seconds > 0.0)) return usage();
      e2e::run_cyl(options, result);
    } else if (e2e::is_campaign_workload(options.workload)) {
      if (!(options.seconds > 0.0)) return usage();
      e2e::run_campaign(options, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "hemo_e2e: " << e.what() << "\n";
    result.check("run completed", false, e.what());
  }
  std::cout << result.to_json(options) << std::endl;
  return result.correct() ? 0 : 1;
}
