// Ablation A1: virtual-channel count. The paper fixes V (assumption vi
// requires V >= 2 for deadlock freedom) but the model's multiplexing and
// source-queue terms depend on V explicitly; this bench sweeps V at a fixed
// operating point and near saturation, model vs simulator.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace kncube;
  std::cout << "=== Ablation A1: virtual channels (16x16, Lm=32, h=20%) ===\n\n";

  util::Table table({"V", "lambda", "model latency", "sim latency", "rel err",
                     "model VmuxHotY", "sim Vmux", "model sat rate"});
  table.set_title("Effect of virtual-channel count at ~50% of V=2 saturation");
  table.set_precision(4);

  // Fix the operating point to half the V=2 saturation so rows compare the
  // same absolute load.
  core::ScenarioSpec base = bench::paper_scenario(32, 0.2);
  const double lambda = 0.5 * core::SweepEngine(base).saturation_rate().rate;

  for (int vcs : {2, 3, 4, 6}) {
    core::ScenarioSpec s = base;
    s.vcs = vcs;
    core::SweepEngine engine(s);
    const auto pts = engine.run({lambda}, /*run_sim=*/true);
    const auto& p = pts[0];
    const double sat = engine.saturation_rate().rate;
    table.add_row({static_cast<long long>(vcs), p.lambda,
                   p.model.saturated ? std::numeric_limits<double>::infinity()
                                     : p.model.latency,
                   p.sim.mean_latency, p.relative_error(), p.model.vc_mux_hot_y,
                   p.sim.mean_vc_multiplexing, sat});
  }
  table.print(std::cout);
  const std::string csv = core::export_csv(table, "ablation_vc");
  if (!csv.empty()) std::cout << "csv: " << csv << "\n";
  std::cout << "\nReading: more VCs deepen multiplexing (Vbar up) but relieve the\n"
               "source queues (lambda/V) and raise the saturation point slightly;\n"
               "the simulator shows the same direction with smaller magnitude.\n";
  return 0;
}
