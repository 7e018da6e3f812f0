// Ablation A3b: buffer depth (simulator only — the model abstracts buffers).
// The paper's router has per-VC flit buffers of unspecified depth; with our
// one-cycle credit loop, depth 1 halves streaming bandwidth while depth >= 2
// streams at full rate, so depth changes both zero-load latency and the
// saturation point.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace kncube;
  std::cout << "=== Ablation A3b: per-VC buffer depth (16x16, Lm=32, h=20%) ===\n\n";

  core::ScenarioSpec base = bench::paper_scenario(32, 0.2);
  const double sat = core::SweepEngine(base).saturation_rate().rate;
  const std::vector<double> lambdas = {0.3 * sat, 0.6 * sat};

  util::Table table({"buffer depth", "lambda/sat", "sim latency", "sim ci95",
                     "sim source wait", "saturated"});
  table.set_title("Simulator latency vs per-VC buffer depth");
  table.set_precision(4);

  for (int depth : {1, 2, 4, 8}) {
    core::ScenarioSpec s = base;
    s.buffer_depth = depth;
    const auto pts = core::SweepEngine(s).run(lambdas, /*run_sim=*/true);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      table.add_row({static_cast<long long>(depth), lambdas[i] / sat,
                     pts[i].sim.mean_latency, pts[i].sim.latency_ci95,
                     pts[i].sim.mean_source_wait,
                     std::string(pts[i].sim.saturated ? "yes" : "no")});
    }
  }
  table.print(std::cout);
  const std::string csv = core::export_csv(table, "ablation_buffer");
  if (!csv.empty()) std::cout << "csv: " << csv << "\n";
  std::cout << "\nReading: depth 1 runs body flits at half rate (the analytical\n"
               "model assumes full-rate streaming, i.e. depth >= 2); beyond 2,\n"
               "extra depth only cushions transient contention.\n";
  return 0;
}
