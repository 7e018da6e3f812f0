// P2: analytical-model performance (google-benchmark). The whole point of
// the model is to replace minutes of simulation with sub-millisecond
// evaluation; this bench keeps that claim measured.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>

#include "core/saturation.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep_engine.hpp"
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
    const auto sat = core::SweepEngine(s).saturation_rate();
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

/// The paper's scenario as perfbench's sweep-hotspot16 states it
/// (examples/specs/hotspot_torus.spec with a shorter measurement).
constexpr const char* kPaperSpec = R"(topology.kind=torus
topology.k=16
topology.n=2
topology.bidirectional=false
traffic.kind=hotspot
traffic.hot_fraction=0.2
traffic.hot_node=-1
arrivals.kind=bernoulli
router.vcs=2
router.buffer_depth=2
workload.message_length=32
measure.warmup_cycles=5000
measure.target_messages=500
measure.max_cycles=1500000
)";

/// A sweep's set-up from spec text to a ready engine, as sweep-hotspot16
/// times it: parse, two `--set` overrides, validate(), then the SweepEngine
/// constructor (registry dispatch and key()).
void BM_ScenarioSetup(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::ScenarioSpec spec = core::parse_scenario(kPaperSpec);
    core::apply_scenario_setting(spec, "measure.seed", std::to_string(++seed));
    core::apply_scenario_setting(spec, "sim.threads", "1");
    spec.validate();
    const core::SweepEngine engine(std::move(spec));
    benchmark::DoNotOptimize(engine.spec_key());
  }
}
BENCHMARK(BM_ScenarioSetup);

/// ScenarioSpec::key(), the hash behind every store record and replication
/// seed, on the paper's scenario.
void BM_ScenarioKey(benchmark::State& state) {
  const core::ScenarioSpec spec = core::parse_scenario(kPaperSpec);
  for (auto _ : state) benchmark::DoNotOptimize(spec.key());
}
BENCHMARK(BM_ScenarioKey);

}  // namespace

BENCHMARK_MAIN();
