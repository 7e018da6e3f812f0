// Channel-load validation table: the model's traffic-rate equations (3)-(9)
// against the simulator's measured per-channel flit utilisation, channel
// class by channel class. This validates the *decomposition* underneath the
// latency figures: the hot-y-ring gradient lambda^h_y,j = lambda*h*k*(k-j),
// the x-channel gradient lambda^h_x,j = lambda*h*(k-j), and the uniform
// background lambda_r = lambda*(1-h)*(k-1)/2.
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "model/traffic_rates.hpp"
#include "sim/simulator.hpp"
#include "topology/hotspot_geometry.hpp"

int main() {
  using namespace kncube;
  std::cout << "=== Channel-load validation: eqs (3)-(9) vs simulator "
               "(16x16, Lm=32, h=30%) ===\n\n";

  core::ScenarioSpec s = bench::paper_scenario(32, 0.3);
  const double sat = core::SweepEngine(s).saturation_rate().rate;
  const double lambda = 0.5 * sat;

  sim::SimConfig cfg = core::to_sim_config(s, lambda);
  cfg.target_messages = bench::quick_mode() ? 3000 : 12000;
  sim::Simulator sim(cfg);
  const sim::SimResult res = sim.run();
  std::cout << "operating point: lambda=" << lambda << " (50% of saturation), "
            << res.measured_messages << " messages, " << res.cycles << " cycles\n\n";

  const topo::KAryNCube& net = sim.network().topology();
  const topo::HotspotGeometry geo(net, cfg.resolved_hot_node());
  const model::TrafficRates rates =
      model::traffic_rates(s.torus().k, lambda, s.hotspot().fraction);
  const double lm = s.message_length;

  // Measured utilisation per class: hot-y channels individually, x channels
  // averaged over the k rows of equal class, non-hot y channels pooled.
  util::Table table({"channel class", "j", "model flits/cycle", "sim flits/cycle",
                     "rel err"});
  table.set_title("Flit load per channel class (model = message rate x Lm)");
  table.set_precision(4);

  auto add_row = [&](const std::string& cls, int j, double model_rate,
                     double sim_util) {
    const double model_util = model_rate * lm;
    table.add_row({cls, static_cast<long long>(j), model_util, sim_util,
                   sim_util > 0 ? std::abs(model_util - sim_util) / sim_util : 0.0});
  };

  const int k = s.torus().k;
  for (int j = 1; j <= k; ++j) {
    // Hot-y channel j hops from the hot node: outgoing y channel of the hot
    // column's node at y = hy - j.
    topo::Coords c = net.coords(cfg.resolved_hot_node());
    c[1] = ((c[1] - j) % k + k) % k;
    const double util =
        sim.network().channel_utilization(net.node_at(c), 1, topo::Direction::kPlus);
    add_row("hot y-ring", j, rates.total_hot_y(j), util);
  }
  for (int j = 1; j <= k; ++j) {
    // X channels j hops from the hot column, averaged over all k rows.
    topo::Coords c = net.coords(cfg.resolved_hot_node());
    const int x = ((c[0] - j) % k + k) % k;
    double util = 0.0;
    for (int row = 0; row < k; ++row) {
      topo::Coords rc{};
      rc[0] = x;
      rc[1] = row;
      util +=
          sim.network().channel_utilization(net.node_at(rc), 0, topo::Direction::kPlus);
    }
    add_row("x-ring (row avg)", j, rates.total_x(j), util / k);
  }
  {
    // Non-hot y channels: pooled average over every column but the hot one.
    double util = 0.0;
    int count = 0;
    for (topo::NodeId id = 0; id < net.size(); ++id) {
      if (geo.in_hot_column(id)) continue;
      util += sim.network().channel_utilization(id, 1, topo::Direction::kPlus);
      ++count;
    }
    add_row("non-hot y (avg)", 0, rates.regular_rate, util / count);
  }
  table.print(std::cout);
  const std::string csv = core::export_csv(table, "tab_channel_util");
  if (!csv.empty()) std::cout << "csv: " << csv << "\n";
  std::cout << "\nReading: the linear hot-column gradient (k-j) of eqs (5)/(7) and\n"
               "the uniform background of eq (3) both appear directly in the\n"
               "simulator's per-channel counters.\n";
  return 0;
}
