// Reproduces Fig. 4: strong scaling of the lbm-proxy-app kernels (SoA
// unrolled and AoS layouts) for the AA and AB propagation patterns on each
// infrastructure. Expected shapes: AA curves sit above AB; AoS beats SoA
// for AB on CPUs but not for AA.
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header("Fig. 4",
                      "lbm-proxy-app strong scaling, AA (a) and AB (b)");

  std::optional<lbm::Propagation> shown;
  for (const auto& kernel : proxy::fig4_variants()) {
    if (kernel.propagation != shown) {
      shown = kernel.propagation;
      std::cout << "\n(" << (*shown == lbm::Propagation::kAA ? "a" : "b")
                << ") " << lbm::to_string(*shown) << " propagation pattern\n";
    }
    auto sim = proxy::make_simulation(proxy::ProxyParams{}, kernel);
    std::cout << "kernel: " << lbm::kernel_name(kernel) << "\n";

    TextTable t;
    std::vector<std::string> header = {"Ranks"};
    for (const auto& abbrev : bench::system_abbrevs()) {
      header.push_back(abbrev);
    }
    t.set_header(std::move(header));
    for (index_t n = 2; n <= 144; n *= 2) {
      std::vector<std::string> row = {TextTable::num(n)};
      for (const auto& abbrev : bench::system_abbrevs()) {
        const auto& profile = cluster::instance_by_abbrev(abbrev);
        if (n > profile.total_cores) {
          row.push_back("-");
          continue;
        }
        row.push_back(
            TextTable::num(sim.measure(profile, n, 200).mflups.value(), 2));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
  std::cout << "\nExpected shape: AA above AB at equal ranks; AoS >= SoA"
               " for AB, AoS ~ SoA for AA.\n";
  return 0;
}
