// Lineage comparison: the predecessor hypercube hot-spot model (paper
// ref. [12]) validated against the simulator in hypercube mode (k=2 n-cube),
// and torus-vs-hypercube hot-spot capacity at equal node count — the
// high-radix-vs-high-dimension trade-off under hot-spot pressure.
//
// Both topologies are plain ScenarioSpecs here: the registry dispatches the
// hypercube spec to the lineage model and the torus spec to the paper's
// model, and one SweepEngine per spec supplies memoized solves, the
// saturation bisection and the parallel model-vs-sim sweep — none of which
// the hypercube path could reach before ScenarioSpec v2.
#include <cmath>
#include <iostream>
#include <limits>

#include "bench/common.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace kncube;

core::ScenarioSpec hypercube_spec(int dims, int lm, double h, bool quick) {
  core::ScenarioSpec s;
  s.topology = core::HypercubeTopology{dims};
  s.traffic = core::HotspotTraffic{h, -1};
  s.vcs = 2;
  s.message_length = lm;
  s.target_messages = quick ? 800 : 2000;
  s.warmup_cycles = 6000;
  s.max_cycles = quick ? 400'000 : 1'200'000;
  return s;
}

}  // namespace

int main() {
  using namespace kncube;
  const bool quick = bench::quick_mode();
  std::cout << "=== Hypercube hot-spot model [ref 12] vs simulator (N=64), and "
               "torus-vs-hypercube capacity ===\n\n";

  // Panel 1: hypercube model vs sim across load, h = 20% — one engine runs
  // both sides over a saturation-anchored sweep, exactly like the torus
  // figure panels.
  {
    core::SweepEngine engine(hypercube_spec(6, 32, 0.2, quick));
    const int points = quick ? 4 : 8;
    const auto lambdas = engine.lambda_sweep(points, 0.1, 0.85);
    const auto pts = engine.run(lambdas, /*run_sim=*/true);

    util::Table table({"lambda", "model latency", "sim latency", "rel err",
                       "model sat", "sim sat"});
    table.set_title("6-cube (N=64), Lm=32, h=20%: model vs simulation");
    table.set_precision(5);
    for (const auto& p : pts) {
      const double rel = p.relative_error();
      table.add_row({p.lambda,
                     p.model.saturated ? std::numeric_limits<double>::infinity()
                                       : p.model.latency,
                     p.sim.mean_latency, std::isnan(rel) ? 0.0 : rel,
                     std::string(p.model.saturated ? "yes" : "no"),
                     std::string(p.sim.saturated ? "yes" : "no")});
    }
    table.print(std::cout);
    const std::string csv = core::export_csv(table, "tab_hypercube_panel");
    if (!csv.empty()) std::cout << "csv: " << csv << "\n";
    std::cout << "\n";
  }

  // Panel 2: equal-N capacity comparison, torus 8x8 vs 6-cube (N=64). The
  // same engine API bisects both saturation boundaries.
  {
    util::Table table({"topology", "h", "model sat rate", "zero-load latency",
                       "bottleneck"});
    table.set_title("Hot-spot capacity at N=64: 8x8 torus vs 6-cube");
    table.set_precision(4);
    for (double h : {0.1, 0.3, 0.5}) {
      core::ScenarioSpec torus = bench::paper_scenario(32, h);
      torus.torus().k = 8;
      core::SweepEngine torus_engine(torus);
      table.add_row({std::string("8x8 torus"), h, torus_engine.saturation_rate().rate,
                     torus_engine.analytical_model().zero_load_latency(),
                     std::string("hot column (k(k-1) streams)")});

      core::SweepEngine cube_engine(hypercube_spec(6, 32, h, quick));
      table.add_row({std::string("6-cube"), h, cube_engine.saturation_rate().rate,
                     cube_engine.analytical_model().zero_load_latency(),
                     std::string("last funnel channel (2^{n-1} streams)")});
    }
    table.print(std::cout);
    const std::string csv = core::export_csv(table, "tab_hypercube_capacity");
    if (!csv.empty()) std::cout << "csv: " << csv << "\n";
    std::cout << "\nReading: at equal N the hypercube both shortens paths and\n"
                 "spreads the hot funnel across n dimensions, sustaining a higher\n"
                 "per-node hot-spot rate than the 2-D torus — the contrast between\n"
                 "this paper's torus analysis and its hypercube predecessor [12].\n";
  }
  return 0;
}
