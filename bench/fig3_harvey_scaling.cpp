// Reproduces Fig. 3: strong scaling of HARVEY performance (MFLUPS vs MPI
// ranks) for the cylinder, aorta, and cerebral geometries on every
// instance. Expected shapes: throughput rises with ranks, rolls over when
// internodal communication dominates; the cerebral geometry performs best;
// the cylinder's curve is the least smooth (communication-heavy).
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header(
      "Fig. 3", "HARVEY strong scaling (MFLUPS) per geometry and system");

  for (const auto& geo_name : geometry::names()) {
    harvey::Simulation sim(geometry::make_named(geo_name), {});
    std::cout << "\n(" << geo_name << ", " << sim.mesh().num_points()
              << " fluid points)\n";
    TextTable t;
    std::vector<std::string> header = {"Ranks"};
    for (const auto& abbrev : bench::system_abbrevs()) header.push_back(abbrev);
    t.set_header(std::move(header));

    // Union ladder across systems.
    std::vector<index_t> ranks;
    for (index_t n = 2; n <= 512; n *= 2) ranks.push_back(n);
    for (index_t n : ranks) {
      std::vector<std::string> row = {TextTable::num(n)};
      for (const auto& abbrev : bench::system_abbrevs()) {
        const auto& profile = cluster::instance_by_abbrev(abbrev);
        if (n > profile.total_cores) {
          row.push_back("-");
          continue;
        }
        const auto r = sim.measure(profile, n, 200);
        row.push_back(TextTable::num(r.mflups.value(), 2));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
  std::cout << "\nExpected shape: cerebral > aorta ~ cylinder in MFLUPS at"
               " equal ranks;\nroll-over once allocations span nodes"
               " (latency-dominated halo exchange).\n";
  return 0;
}
