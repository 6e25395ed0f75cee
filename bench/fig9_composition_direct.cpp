// Reproduces Fig. 9: composition of maximum task runtime per core count as
// predicted by the DIRECT model for HARVEY's cylinder on CSP-2 (no EC):
// memory accesses vs intranodal vs internodal communication. Expected
// shape: memory dominates at low ranks; internodal communication grows to
// dominance; intranodal stays negligible.
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header(
      "Fig. 9",
      "direct-model runtime composition, cylinder on CSP-2 (no EC)");

  bench::CalibrationCache cache;
  const auto& cal = cache.get("CSP-2");
  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  harvey::Simulation sim(geometry::make_named("cylinder"), {});

  TextTable t;
  t.set_header({"Ranks", "Memory (us)", "Intranodal (us)",
                "Internodal (us)", "Total (us)", "Comm share"});
  for (index_t n = 2; n <= 144; n *= 2) {
    const auto p = core::predict_direct(
        sim.plan(n, profile.cores_per_node), cal);
    t.add_row({TextTable::num(n),
               TextTable::num(p.t_mem.value() * 1e6, 1),
               TextTable::num(p.t_intra.value() * 1e6, 2),
               TextTable::num(p.t_inter.value() * 1e6, 1),
               TextTable::num(p.step_seconds.value() * 1e6, 1),
               TextTable::num(p.t_comm / p.step_seconds, 3)});
  }
  t.print(std::cout);

  std::cout << "\nExpected shape: red (memory) shrinks ~1/ranks; purple"
               " (internodal) takes over past one node;\ngreen (intranodal)"
               " much smaller than both throughout.\n";
  return 0;
}
