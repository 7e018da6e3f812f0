// P2: analytical-model performance (google-benchmark). The whole point of
// the model is to replace minutes of simulation with sub-millisecond
// evaluation; this bench keeps that claim measured.
#include <benchmark/benchmark.h>

#include "core/saturation.hpp"
#include "model/analytical_model.hpp"

namespace {

using namespace kncube;

void BM_ModelSolve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto load_pct = static_cast<double>(state.range(1));
  model::ModelConfig cfg;
  cfg.k = k;
  cfg.vcs = 2;
  cfg.message_length = 32;
  cfg.hot_fraction = 0.2;
  const model::AnalyticalModel hotspot(cfg);
  const double lambda = load_pct / 100.0 * hotspot.estimated_saturation_rate();
  int iterations = 0;
  for (auto _ : state) {
    const model::ModelResult r = hotspot.solve_at(lambda);
    iterations = r.iterations;
    benchmark::DoNotOptimize(r.latency);
  }
  state.counters["fixed_point_iters"] = iterations;
}
BENCHMARK(BM_ModelSolve)->ArgsProduct({{8, 16, 32}, {20, 60, 90}});

void BM_ModelSaturationSearch(benchmark::State& state) {
  core::ScenarioSpec s;
  s.torus().k = static_cast<int>(state.range(0));
  s.vcs = 2;
  s.message_length = 32;
  s.hotspot().fraction = 0.2;
  for (auto _ : state) {
    const auto sat = core::model_saturation_rate(s);
    benchmark::DoNotOptimize(sat.rate);
  }
}
BENCHMARK(BM_ModelSaturationSearch)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_UniformModelSolve(benchmark::State& state) {
  model::ModelConfig cfg;
  cfg.k = 16;
  cfg.hot_fraction = std::nullopt;  // uniform traffic
  cfg.vcs = 2;
  cfg.message_length = 32;
  const model::AnalyticalModel uniform(cfg);
  for (auto _ : state) {
    const auto r = uniform.solve_at(1e-3);
    benchmark::DoNotOptimize(r.latency);
  }
}
BENCHMARK(BM_UniformModelSolve);

}  // namespace

BENCHMARK_MAIN();
