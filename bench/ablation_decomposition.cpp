// Ablation: decomposition strategy. Compares grid, RCB, and slab
// partitioning on byte imbalance (the z factor of Eq. 10), halo volume,
// event counts, and resulting virtual-cluster throughput for each
// geometry at 64 ranks on CSP-2.
#include "decomp/comm_graph.hpp"

#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header("Ablation",
                      "decomposition strategy (64 ranks on CSP-2)");

  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  cluster::VirtualCluster vc(profile);
  constexpr index_t kRanks = 64;

  for (const auto& geo_name : geometry::names()) {
    const auto geo = geometry::make_named(geo_name);
    const auto mesh = lbm::FluidMesh::build(geo.grid);
    const lbm::KernelConfig kernel{};

    std::cout << "\n(" << geo_name << ")\n";
    TextTable t;
    t.set_header({"Strategy", "Imbalance z", "Max events",
                  "Max halo (KB)", "MFLUPS"});
    for (decomp::Strategy s : {decomp::Strategy::kGrid,
                               decomp::Strategy::kRcb,
                               decomp::Strategy::kSlab}) {
      const auto part = decomp::make_partition(mesh, kRanks, s);
      const auto graph = decomp::build_comm_graph(mesh, part);
      const auto plan = cluster::make_workload_plan(
          mesh, part, kernel, profile.cores_per_node);
      const auto r = vc.execute(plan, 200, {});
      t.add_row({decomp::to_string(s),
                 TextTable::num(
                     decomp::measured_imbalance(mesh, part, kernel), 3),
                 TextTable::num(graph.max_events()),
                 TextTable::num(graph.max_total_bytes(kernel) / 1024.0, 1),
                 TextTable::num(r.mflups.value(), 2)});
    }
    t.print(std::cout);
  }
  std::cout << "\nExpected: RCB balances bytes best; slab minimizes"
               " neighbor counts but cuts huge faces;\ngrid suffers on"
               " complex geometries (empty blocks).\n";
  return 0;
}
