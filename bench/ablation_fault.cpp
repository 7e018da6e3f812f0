// Ablation A6 — reliability degradation: latency of the surviving traffic
// and survivable throughput vs failed-router count, on the paper's hot-spot
// torus. The analytical model has no fault-aware counterpart (faulty specs
// dispatch sim-only), so this panel is pure simulation: it quantifies how
// gracefully the network sheds the unreachable pairs as seed-derived random
// failures accumulate, at fixed fractions of the *pristine* saturation rate.
#include <iostream>
#include <limits>

#include "bench/common.hpp"
#include "sim/simulator.hpp"
#include "validate/reliability.hpp"

int main() {
  using namespace kncube;
  std::cout << "=== Ablation A6: degradation under router failures "
               "(8x8 torus, Lm=16, h=20%) ===\n\n";

  // Smaller than the paper's 16x16 so a failure count of 8 is a substantial
  // fraction of the network; the reliability suite (RELIABILITY.json) pins
  // the committed trajectory, this panel explores the wider count axis.
  core::ScenarioSpec base;
  base.topology = core::TorusTopology{8, 2, false};
  base.traffic = core::HotspotTraffic{0.2, -1};
  base.message_length = 16;
  base.warmup_cycles = 5000;
  base.target_messages = bench::quick_mode() ? 700 : 2000;
  base.max_cycles = 800'000;

  core::SweepEngine engine(base);
  const double sat = engine.saturation_rate().rate;

  validate::ReliabilityCase rc;
  rc.spec = base;
  rc.failure_seed = 7;

  util::Table table({"failed", "reach", "lambda/sat", "latency", "delivered",
                     "unreach", "lat vs f=0", "thr vs f=0"});
  table.set_title("Surviving-traffic latency and survivable throughput");
  table.set_precision(4);

  const auto counts = bench::quick_mode() ? std::vector<int>{0, 2, 8}
                                          : std::vector<int>{0, 1, 2, 4, 8};
  for (const double frac : {0.3, 0.6}) {
    const double lambda = frac * sat;
    sim::SimResult pristine{};
    for (const int f : counts) {
      const core::ScenarioSpec spec = validate::faulty_spec(rc, f);
      const sim::SimResult res = sim::simulate(core::to_sim_config(spec, lambda));
      if (f == 0) pristine = res;
      const double inf = std::numeric_limits<double>::infinity();
      const bool ratio_ok =
          f > 0 && !res.saturated && !pristine.saturated &&
          pristine.mean_latency > 0 && pristine.accepted_load > 0;
      table.add_row({static_cast<long long>(f), res.reachable_pair_fraction,
                     frac, res.saturated ? inf : res.mean_latency,
                     res.accepted_load, res.unreachable_fraction,
                     ratio_ok ? util::Cell(res.mean_latency / pristine.mean_latency)
                              : util::Cell(std::string("-")),
                     ratio_ok ? util::Cell(res.accepted_load / pristine.accepted_load)
                              : util::Cell(std::string("-"))});
    }
  }
  table.print(std::cout);
  const std::string csv = core::export_csv(table, "ablation_fault");
  if (!csv.empty()) std::cout << "csv: " << csv << "\n";
  std::cout << "\nReading: survivable throughput tracks the reachable-pair\n"
               "fraction (unreachable traffic never enters the network), while\n"
               "the latency of the surviving pairs can move either way — losing\n"
               "long routes *lowers* the mean, extra contention around the dead\n"
               "routers raises it. The committed RELIABILITY.json trajectory\n"
               "gates conservation and determinism, not direction.\n";
  return 0;
}
