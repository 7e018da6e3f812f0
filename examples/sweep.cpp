// Generic sweep driver over the public API: model (and optionally
// simulator) latency across an injection-rate range, printed as a table and
// an ASCII chart, optionally exported to CSV. The Swiss-army knife for
// exploring configurations beyond the paper's six panels.
//
// Usage:
//   sweep [--k 16] [--vcs 2] [--lm 32] [--h 0.2] [--points 10]
//         [--lo 0.1] [--hi 0.95]     # fractions of the model saturation rate
//         [--sim 1]                  # 0 = model only (fast)
//         [--csv out.csv]
#include <cstdlib>
#include <iostream>

#include "core/kncube.hpp"
#include "core/sweep_engine.hpp"
#include "util/chart.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace kncube;

  util::Args args(argc, argv);
  const auto unknown = args.unknown_keys(
      {"k", "vcs", "lm", "h", "points", "lo", "hi", "sim", "csv", "seed"});
  if (!unknown.empty()) {
    std::cerr << "unknown option --" << unknown.front() << "\n";
    return EXIT_FAILURE;
  }

  core::ScenarioSpec s;
  s.torus().k = static_cast<int>(args.get_int("k", 16));
  s.vcs = static_cast<int>(args.get_int("vcs", 2));
  s.message_length = static_cast<int>(args.get_int("lm", 32));
  s.hotspot().fraction = args.get_double("h", 0.2);
  s.seed = static_cast<std::uint64_t>(args.get_int("seed", 0xC0FFEE));
  const int points = static_cast<int>(args.get_int("points", 10));
  const double lo = args.get_double("lo", 0.1);
  const double hi = args.get_double("hi", 0.95);
  const bool with_sim = args.get_bool("sim", true);

  core::SweepEngine engine(s);
  const core::SaturationResult sat = engine.saturation_rate();
  std::cout << s.torus().k << "x" << s.torus().k << " torus, Lm="
            << s.message_length << ", h=" << s.hotspot().fraction * 100
            << "%, V=" << s.vcs
            << "; model saturation " << sat.rate << " msg/node/cycle\n\n";

  const auto lambdas = core::sweep_rates(sat, points, lo, hi);
  const auto pts = engine.run(lambdas, with_sim);
  util::Table table = core::figure_table("sweep", pts);
  table.print(std::cout);

  util::Series model_series{"model", 'm', {}, {}};
  util::Series sim_series{"simulation", 's', {}, {}};
  for (const auto& p : pts) {
    model_series.x.push_back(p.lambda);
    model_series.y.push_back(p.model.saturated
                                 ? std::numeric_limits<double>::infinity()
                                 : p.model.latency);
    if (p.has_sim) {
      sim_series.x.push_back(p.lambda);
      sim_series.y.push_back(p.sim.saturated
                                 ? std::numeric_limits<double>::infinity()
                                 : p.sim.mean_latency);
    }
  }
  util::ChartOptions chart;
  chart.x_label = "traffic (messages/cycle)";
  chart.y_label = "latency (cycles)";
  // Clip the near-saturation spike so the knee stays visible, but only once
  // there are enough points for a quantile to be meaningful.
  chart.y_clip_quantile = points >= 8 ? 0.999 : 1.0;
  std::vector<util::Series> series = {model_series};
  if (with_sim) series.push_back(sim_series);
  std::cout << "\n" << util::render_chart(series, chart);

  const std::string csv = args.get_string("csv", "");
  if (!csv.empty()) {
    if (table.write_csv(csv)) {
      std::cout << "wrote " << csv << "\n";
    } else {
      std::cerr << "failed to write " << csv << "\n";
      return EXIT_FAILURE;
    }
  }
  return EXIT_SUCCESS;
}
