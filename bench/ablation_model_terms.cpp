// Ablation (Discussion §IV): which terms of the generalized model matter?
// Evaluates prediction error vs virtual-cluster measurements for the full
// model and for variants with the load-imbalance factor, the latency term,
// or the bandwidth term removed.
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace hemo;

enum class Variant { kFull, kNoImbalance, kNoLatency, kNoBandwidth };

const char* name(Variant v) {
  switch (v) {
    case Variant::kFull: return "full model";
    case Variant::kNoImbalance: return "z = 1 (no imbalance)";
    case Variant::kNoLatency: return "no latency term";
    case Variant::kNoBandwidth: return "no comm-bandwidth term";
  }
  return "?";
}

core::ModelPrediction predict(Variant v,
                              const core::WorkloadCalibration& wcal,
                              const core::InstanceCalibration& cal,
                              index_t n, index_t tpn) {
  core::WorkloadCalibration w = wcal;
  if (v == Variant::kNoImbalance) {
    w.imbalance = fit::ImbalanceModel{0.0, 1.0};  // z == 1 everywhere
  }
  core::ModelPrediction p = core::predict_general(w, cal, n, tpn);
  if (v == Variant::kNoLatency) {
    p.step_seconds -= p.t_comm_lat;
    p.t_comm -= p.t_comm_lat;
    p.t_comm_lat = units::Seconds(0.0);
  } else if (v == Variant::kNoBandwidth) {
    p.step_seconds -= p.t_comm_bw;
    p.t_comm -= p.t_comm_bw;
    p.t_comm_bw = units::Seconds(0.0);
  }
  p.mflups = units::Mflups(static_cast<real_t>(w.total_points) /
                           (p.step_seconds.value() * 1e6));
  return p;
}

}  // namespace

int main() {
  using namespace hemo;
  bench::print_header("Ablation",
                      "generalized-model term ablation, cylinder on CSP-2");

  const auto& profile = cluster::instance_by_abbrev("CSP-2");
  bench::CalibrationCache cache;
  const auto& cal = cache.get("CSP-2");
  harvey::Simulation sim(geometry::make_named("cylinder"), {});
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  const core::WorkloadCalibration wcal =
      core::calibrate_workload(sim, cal_counts, profile.cores_per_node);

  TextTable t;
  t.set_header({"Variant", "Mean |rel. error| vs measured",
                "Worst ranks"});
  for (Variant v : {Variant::kFull, Variant::kNoImbalance,
                    Variant::kNoLatency, Variant::kNoBandwidth}) {
    real_t acc = 0.0, worst = 0.0;
    index_t worst_n = 0, count = 0;
    for (index_t n = 2; n <= 144; n *= 2) {
      const auto measured = sim.measure(profile, n, 200);
      const auto pred =
          predict(v, wcal, cal, n, profile.cores_per_node);
      const real_t err = std::abs((pred.mflups - measured.mflups).value()) /
                         measured.mflups.value();
      acc += err;
      if (err > worst) {
        worst = err;
        worst_n = n;
      }
      ++count;
    }
    t.add_row({name(v), TextTable::num(acc / static_cast<real_t>(count), 3),
               TextTable::num(worst_n)});
  }
  t.print(std::cout);

  std::cout << "\nExpected: dropping the latency term hurts most at high"
               " ranks (Fig. 10: comm is latency-bound);\ndropping the"
               " bandwidth term barely matters; z matters least for the"
               " well-balanced cylinder.\n";
  return 0;
}
