// Saturation-rate table (implied by the figures' x-axis ranges): the highest
// stable injection rate per (Lm, h) combination, model vs simulator, plus
// the closed-form bottleneck estimate. The paper's figures stop exactly
// where these boundaries sit, so this table is the quantitative version of
// "where the asymptote falls" in every panel.
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace kncube;
  std::cout << "=== Saturation rates: 16x16 torus, V=2 ===\n\n";

  util::Table table({"Lm (flits)", "h", "model sat rate", "sim sat rate",
                     "sim/model", "bottleneck estimate", "model probes"});
  table.set_title("Saturation injection rate (messages/node/cycle)");
  table.set_precision(4);

  const bool quick = bench::quick_mode();
  for (int lm : {32, 100}) {
    for (double h : {0.2, 0.4, 0.7}) {
      core::ScenarioSpec s = bench::paper_scenario(lm, h);
      // Saturation probes reveal themselves quickly; cap per-probe effort.
      s.target_messages = 800;
      s.max_cycles = quick ? 150'000 : 400'000;
      const auto model_sat = core::SweepEngine(s).saturation_rate();
      const auto sim_sat = core::sim_saturation_rate(s, quick ? 0.12 : 0.06);
      const double est =
          core::make_analytical_model(s).model->estimated_saturation_rate();
      table.add_row({static_cast<long long>(lm), h, model_sat.rate, sim_sat.rate,
                     sim_sat.rate / model_sat.rate, est,
                     static_cast<long long>(model_sat.probes)});
    }
  }
  table.print(std::cout);
  const std::string csv = core::export_csv(table, "tab_saturation");
  if (!csv.empty()) std::cout << "csv: " << csv << "\n";
  return 0;
}
