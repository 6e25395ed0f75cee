// Reproduces Fig. 2 (as data): the three arterial geometries and the
// structural properties the paper attributes to them — (A) idealized
// cylinder: high communication, good load balancing; (B) aorta: typical
// communication and balancing; (C) cerebral vasculature: low
// communication, many wall points.
#include "decomp/comm_graph.hpp"

#include "bench_common.hpp"

int main() {
  using namespace hemo;
  bench::print_header("Fig. 2",
                      "arterial geometries and their structural properties");

  TextTable t;
  t.set_header({"Geometry", "Fluid points", "Bulk:wall ratio",
                "Fill fraction", "Halo links/point @16 tasks",
                "Imbalance z @16 (RCB)"});
  for (const auto& name : geometry::names()) {
    const auto geo = geometry::make_named(name);
    const auto stats = geometry::compute_stats(geo);
    const auto mesh = lbm::FluidMesh::build(geo.grid);
    const auto part =
        decomp::make_partition(mesh, 16, decomp::Strategy::kRcb);
    const auto graph = decomp::build_comm_graph(mesh, part);
    index_t links = 0;
    for (const auto& m : graph.messages) links += m.link_count;
    t.add_row({name, TextTable::num(stats.counts.fluid()),
               TextTable::num(stats.bulk_to_wall_ratio, 2),
               TextTable::num(stats.fill_fraction, 3),
               TextTable::num(static_cast<real_t>(links) /
                                  static_cast<real_t>(mesh.num_points()),
                              3),
               TextTable::num(decomp::measured_imbalance(
                                  mesh, part, lbm::KernelConfig{}), 3)});
  }
  t.print(std::cout);

  std::cout << "\nExpected (paper Fig. 2 captions): cylinder packs bulk"
               " fluid densely (high\ncommunication, good balance);"
               " cerebral is wall-point-rich with small cut\nsurfaces (low"
               " communication); aorta sits between.\n";
  return 0;
}
