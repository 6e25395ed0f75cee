// Ablation: GPU offload and the CPU-GPU transfer term of Eq. 2.
//
// Compares, on the GPU-equipped CSP-2 variant, CPU execution vs GPU
// execution (one task per device) across node counts, with the direct
// model's predictions alongside — including the t_CPU-GPU term. Also
// contrasts the economics: the GPU instance costs ~4x per node-hour.
#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header("Ablation",
                      "GPU offload vs CPU on CSP-2 GPU (Eq. 2 t_CPU-GPU)");

  const auto& profile = cluster::instance_by_abbrev("CSP-2 GPU");
  const auto cal = core::calibrate_instance(profile);
  harvey::Simulation sim(geometry::make_named("aorta"), {});

  TextTable t;
  t.set_header({"Nodes", "CPU MFLUPS (36/node)", "GPU MFLUPS (4/node)",
                "GPU model", "PCIe share", "GPU speedup"});
  for (index_t nodes : {1, 2, 4}) {
    const index_t cpu_tasks = nodes * 36;
    const index_t gpu_tasks = nodes * 4;
    const auto cpu = sim.measure(profile, cpu_tasks, 200);
    const auto gpu = sim.measure_gpu(profile, gpu_tasks, 200);
    const auto pred = core::predict_direct(sim.gpu_plan(gpu_tasks, 4), cal);
    const real_t pcie_share =
        pred.t_xfer.value() / std::max(pred.step_seconds.value(), 1e-30);
    t.add_row({TextTable::num(nodes),
               TextTable::num(cpu.mflups.value(), 1),
               TextTable::num(gpu.mflups.value(), 1),
               TextTable::num(pred.mflups.value(), 1),
               TextTable::num(pcie_share, 3),
               TextTable::num(gpu.mflups / cpu.mflups, 2)});
  }
  t.print(std::cout);

  std::cout << "\nCost context: CSP-2 GPU lists at $"
            << TextTable::num(profile.price_per_node_hour.value(), 2)
            << "/node-hr vs $"
            << TextTable::num(cluster::instance_by_abbrev("CSP-2 EC")
                                  .price_per_node_hour.value(),
                              2)
            << " for the CPU-only EC instance.\n"
               "Expected: large single-node GPU speedups; PCIe staging and"
               " interconnect latency erode multi-node gains.\n";
  return 0;
}
