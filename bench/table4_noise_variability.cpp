// Reproduces Table IV: HARVEY aorta performance statistics from
// measurements at 6-hour intervals over 7 days on CSP-1 and CSP-2 Small.
// Expected: coefficients of variation in the 0.004 - 0.02 range — noise
// variability has little effect and clouds are not noisier than the
// dedicated cluster.
#include "fit/stats.hpp"

#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header(
      "Table IV", "aorta MFLUPS statistics, 6 h intervals over 7 days");

  harvey::Simulation sim(geometry::make_named("aorta"), {});

  struct Config {
    const char* abbrev;
    index_t ranks;
  };
  const std::vector<Config> configs = {
      {"CSP-1", 16}, {"CSP-1", 32}, {"CSP-1", 48},
      {"CSP-2 Small", 16}, {"CSP-2 Small", 32}, {"CSP-2 Small", 64},
      {"CSP-2 Small", 128}};

  TextTable t;
  t.set_header({"System", "MPI Ranks", "Mean MFLUPS", "Standard Deviation",
                "Variation Coefficient"});
  for (const auto& config : configs) {
    const auto& profile = cluster::instance_by_abbrev(config.abbrev);
    std::vector<real_t> samples;
    for (index_t day = 0; day < 7; ++day) {
      for (index_t hour = 0; hour < 24; hour += 6) {
        samples.push_back(
            sim.measure(profile, config.ranks, 100, {day, hour, 0})
                .mflups.value());
      }
    }
    const auto s = fit::summarize(samples);
    t.add_row({config.abbrev, TextTable::num(config.ranks),
               TextTable::num(s.mean, 2), TextTable::num(s.stddev, 2),
               TextTable::num(s.cov, 3)});
  }
  t.print(std::cout);

  std::cout << "\nPaper Table IV: CoV between 0.004 and 0.02 for every"
               " configuration.\n";
  return 0;
}
