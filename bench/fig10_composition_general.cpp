// Reproduces Fig. 10: composition of maximum task runtime per core count
// as predicted by the GENERALIZED model for HARVEY's cylinder on CSP-2
// (no EC), splitting communication into its bandwidth and latency terms.
// Expected shape: the bulk of internodal communication time is latency,
// not insufficient bandwidth.
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header(
      "Fig. 10",
      "generalized-model runtime composition, cylinder on CSP-2 (no EC)");

  bench::CalibrationCache cache;
  const auto& cal = cache.get("CSP-2");
  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  harvey::Simulation sim(geometry::make_named("cylinder"), {});
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  const core::WorkloadCalibration wcal =
      core::calibrate_workload(sim, cal_counts, profile.cores_per_node);

  TextTable t;
  t.set_header({"Ranks", "Memory (us)", "Comm bandwidth (us)",
                "Comm latency (us)", "Total (us)", "Latency share of comm"});
  for (index_t n = 2; n <= 144; n *= 2) {
    const auto p =
        core::predict_general(wcal, cal, n, profile.cores_per_node);
    const real_t comm =
        p.t_comm.value() > 0.0 ? p.t_comm.value() : 1.0;
    t.add_row({TextTable::num(n),
               TextTable::num(p.t_mem.value() * 1e6, 1),
               TextTable::num(p.t_comm_bw.value() * 1e6, 2),
               TextTable::num(p.t_comm_lat.value() * 1e6, 1),
               TextTable::num(p.step_seconds.value() * 1e6, 1),
               TextTable::num(p.t_comm_lat.value() / comm, 3)});
  }
  t.print(std::cout);

  std::cout << "\nExpected shape: latency term dominates the communication"
               " time at every multi-node rank count.\n";
  return 0;
}
