// Ablation A3a: blocking-approximation variants (DESIGN.md R8). The paper's
// eqs (26)-(30) leave the service-time scale inside the rho-like quantities
// ambiguous; this bench quantifies every combination against the simulator:
//   * busy basis: inclusive (paper letter) vs transmission (default)
//   * vcmux basis: inclusive vs transmission (default)
//   * blocking form: Pb*wc (paper, eq 26) vs wc alone
#include <iostream>

#include "bench/common.hpp"

int main() {
  using namespace kncube;
  std::cout << "=== Ablation A3a: blocking approximation variants "
               "(16x16, Lm=32, h=20%) ===\n\n";

  core::ScenarioSpec base = bench::paper_scenario(32, 0.2);
  core::SweepEngine engine(base);
  const double sat = engine.saturation_rate().rate;
  const std::vector<double> lambdas = {0.2 * sat, 0.5 * sat, 0.8 * sat};

  // Simulate each operating point once (shared across variants).
  const auto sim_pts = engine.run(lambdas, /*run_sim=*/true);

  util::Table table({"variant", "lambda/sat", "model latency", "sim latency",
                     "rel err"});
  table.set_title("Model variants vs simulation");
  table.set_precision(4);

  struct Variant {
    const char* name;
    model::ServiceBasis busy;
    model::ServiceBasis mux;
    model::BlockingVariant blocking;
  };
  const Variant variants[] = {
      {"busy=tx, mux=tx (default)", model::ServiceBasis::kTransmission,
       model::ServiceBasis::kTransmission, model::BlockingVariant::kPaper},
      {"busy=incl (paper letter)", model::ServiceBasis::kInclusive,
       model::ServiceBasis::kTransmission, model::BlockingVariant::kPaper},
      {"mux=incl", model::ServiceBasis::kTransmission,
       model::ServiceBasis::kInclusive, model::BlockingVariant::kPaper},
      {"busy=incl, mux=incl", model::ServiceBasis::kInclusive,
       model::ServiceBasis::kInclusive, model::BlockingVariant::kPaper},
      {"pure M/G/1 wait (no Pb)", model::ServiceBasis::kTransmission,
       model::ServiceBasis::kTransmission, model::BlockingVariant::kPureWait},
  };

  for (const auto& variant : variants) {
    // Each variant is its own ScenarioSpec (the ablation knobs are spec
    // fields), dispatched through the registry like any other workload.
    core::ScenarioSpec spec = base;
    spec.busy_basis = variant.busy;
    spec.vcmux_basis = variant.mux;
    spec.blocking = variant.blocking;
    const core::ModelDispatch dispatch = core::make_analytical_model(spec);
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      const model::ModelResult r = dispatch.model->solve_at(lambdas[i]);
      const double sim_lat = sim_pts[i].sim.mean_latency;
      table.add_row({std::string(variant.name), lambdas[i] / sat,
                     r.saturated ? std::numeric_limits<double>::infinity()
                                 : r.latency,
                     sim_lat,
                     r.saturated || sim_lat <= 0
                         ? util::Cell{std::string("-")}
                         : util::Cell{std::abs(r.latency - sim_lat) / sim_lat}});
    }
  }
  table.print(std::cout);
  const std::string csv = core::export_csv(table, "ablation_blocking");
  if (!csv.empty()) std::cout << "csv: " << csv << "\n";
  std::cout << "\nReading: the transmission basis tracks the simulator closest;\n"
               "inclusive bases (the paper's literal formulas) over-predict under\n"
               "load because blocked residency is double-counted in Pb and Vbar.\n";
  return 0;
}
