#include "core/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>


namespace kncube::core {
namespace {

/// An 8x8 hot-spot torus, V=2, Lm=8, h=0.3, with reduced simulation effort.
ScenarioSpec small_scenario() {
  ScenarioSpec s;
  s.torus().k = 8;
  s.vcs = 2;
  s.message_length = 8;
  s.hotspot().fraction = 0.3;
  s.target_messages = 500;
  s.warmup_cycles = 2000;
  s.max_cycles = 300000;
  return s;
}

TEST(SweepEngine, MemoizesRepeatedModelPoints) {
  SweepEngine engine(small_scenario());
  const auto a = engine.model_point(2e-4);
  EXPECT_EQ(engine.cache_stats().model_entries, 1u);
  EXPECT_EQ(engine.cache_stats().model_hits, 0u);
  const auto b = engine.model_point(2e-4);
  EXPECT_EQ(engine.cache_stats().model_entries, 1u);
  EXPECT_EQ(engine.cache_stats().model_hits, 1u);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(SweepEngine, OverlappingSweepsShareModelSolves) {
  SweepEngine engine(small_scenario());
  const std::vector<double> lams = {1e-4, 2e-4, 3e-4};
  const auto first = engine.run(lams, /*run_sim=*/false);
  const auto hits_before = engine.cache_stats().model_hits;
  const auto second = engine.run(lams, /*run_sim=*/false);
  EXPECT_EQ(engine.cache_stats().model_entries, 3u);
  EXPECT_EQ(engine.cache_stats().model_hits, hits_before + 3);
  for (std::size_t i = 0; i < lams.size(); ++i) {
    EXPECT_EQ(first[i].model.latency, second[i].model.latency);
  }
}

TEST(SweepEngine, DuplicateLambdasInOneBatchStayIndependentReplicates) {
  // Identical lambdas at different indices get different derived seeds, so
  // their simulations are independent samples — never cache hits.
  SweepEngine engine(small_scenario());
  const auto pts = engine.run({8e-4, 8e-4}, /*run_sim=*/true);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_NE(engine.point_seed(0), engine.point_seed(1));
  EXPECT_NE(pts[0].sim.mean_latency, pts[1].sim.mean_latency);
  // The deterministic model side is shared.
  EXPECT_EQ(pts[0].model.latency, pts[1].model.latency);
  EXPECT_EQ(engine.cache_stats().sim_entries, 2u);
}

TEST(SweepEngine, RepeatedBatchesReuseSimResults) {
  SweepEngine engine(small_scenario());
  const auto a = engine.run({5e-4}, /*run_sim=*/true);
  EXPECT_EQ(engine.cache_stats().sim_hits, 0u);
  const auto b = engine.run({5e-4}, /*run_sim=*/true);
  EXPECT_EQ(engine.cache_stats().sim_hits, 1u);
  EXPECT_EQ(a[0].sim.mean_latency, b[0].sim.mean_latency);
}

TEST(SweepEngine, ClearCacheResetsEverything) {
  SweepEngine engine(small_scenario());
  engine.run({1e-4, 2e-4}, /*run_sim=*/false);
  engine.model_point(1e-4);
  EXPECT_GT(engine.cache_stats().model_entries, 0u);
  EXPECT_GT(engine.cache_stats().model_hits, 0u);
  engine.clear_cache();
  EXPECT_EQ(format_cache_stats(engine.cache_stats()),
            format_cache_stats(CacheStats{}));
}

TEST(SweepEngine, SaturationBisectionSharesTheModelCache) {
  SweepEngine engine(small_scenario());
  const SaturationResult sat = engine.saturation_rate();
  EXPECT_GT(sat.rate, 0.0);
  EXPECT_GT(sat.probes, 0);
  // Every bisection probe landed in the model cache...
  EXPECT_EQ(engine.cache_stats().model_entries,
            static_cast<std::uint64_t>(sat.probes));
  // ...and the boundary itself is cached: repeating costs no new solves.
  const std::uint64_t solves_before = engine.cache_stats().model_solves;
  const SaturationResult again = engine.saturation_rate();
  EXPECT_EQ(again.rate, sat.rate);
  EXPECT_EQ(engine.cache_stats().model_solves, solves_before);
}

TEST(SweepEngine, CompilesTheModelOncePerCallAndOnlyOnAStoreMiss) {
  auto store = std::make_shared<MemoryResultStore>();
  SweepEngine engine(small_scenario(), store);
  EXPECT_EQ(engine.model_compiles(), 0u);  // construction compiles nothing

  // A search compiles once for all its probes; its cached result, none.
  const SaturationResult sat = engine.saturation_rate();
  EXPECT_GT(sat.probes, 1);
  EXPECT_EQ(engine.model_compiles(), 1u);
  engine.saturation_rate();
  EXPECT_EQ(engine.model_compiles(), 1u);

  // A run compiles once for all its lanes; a run of stored points, never.
  const std::vector<double> lambdas = engine.lambda_sweep(8);
  engine.run(lambdas, /*run_sim=*/false);
  EXPECT_EQ(engine.model_compiles(), 2u);
  engine.run(lambdas, /*run_sim=*/false);
  EXPECT_EQ(engine.model_compiles(), 2u);

  // A second engine on the same store finds everything stored.
  SweepEngine second(small_scenario(), store);
  second.saturation_rate();
  second.run(lambdas, /*run_sim=*/false);
  second.model_point(lambdas[3]);
  EXPECT_EQ(second.model_compiles(), 0u);
  EXPECT_EQ(second.cache_stats().model_solves, 0u);

  // One missing point among stored ones: one compile, one solve.
  std::vector<double> with_new = lambdas;
  with_new.push_back(0.5 * lambdas[0]);
  second.run(with_new, /*run_sim=*/false);
  EXPECT_EQ(second.model_compiles(), 1u);
  EXPECT_EQ(second.cache_stats().model_solves, 1u);
}

TEST(SweepEngine, SimOnlyRunsCompileNothing) {
  ScenarioSpec spec = small_scenario();
  spec.torus().bidirectional = true;  // no analytical model
  SweepEngine engine(spec);
  ASSERT_FALSE(engine.has_model());
  engine.run({2e-4}, /*run_sim=*/true);
  EXPECT_EQ(engine.model_compiles(), 0u);
}

TEST(SweepEngine, LambdaSweepSpansRequestedRange) {
  SweepEngine engine(small_scenario());
  const auto lams = engine.lambda_sweep(5, 0.2, 0.9);
  ASSERT_EQ(lams.size(), 5u);
  for (std::size_t i = 1; i < lams.size(); ++i) EXPECT_GT(lams[i], lams[i - 1]);
  EXPECT_NEAR(lams.back() / lams.front(), 0.9 / 0.2, 1e-9);
}

TEST(SweepEngine, ScenarioBasisKnobsReachTheModel) {
  // The spec forwards all three model-approximation knobs (not just the
  // blocking variant) to the ModelConfig...
  ScenarioSpec s = small_scenario();
  s.blocking = model::BlockingVariant::kPureWait;
  s.busy_basis = model::ServiceBasis::kInclusive;
  s.vcmux_basis = model::ServiceBasis::kInclusive;
  const SweepEngine engine(s);
  const model::ModelConfig& mc = engine.analytical_model().config();
  EXPECT_EQ(mc.blocking, model::BlockingVariant::kPureWait);
  EXPECT_EQ(mc.busy_basis, model::ServiceBasis::kInclusive);
  EXPECT_EQ(mc.vcmux_basis, model::ServiceBasis::kInclusive);

  // ...and each basis knob changes the solved latency.
  const double lambda = 8e-4;
  ScenarioSpec base = small_scenario();
  ScenarioSpec busy = small_scenario();
  busy.busy_basis = model::ServiceBasis::kInclusive;
  ScenarioSpec mux = small_scenario();
  mux.vcmux_basis = model::ServiceBasis::kInclusive;
  const auto rb = SweepEngine(base).model_point(lambda);
  const auto ri = SweepEngine(busy).model_point(lambda);
  const auto rm = SweepEngine(mux).model_point(lambda);
  ASSERT_FALSE(rb.saturated);
  ASSERT_FALSE(ri.saturated);
  ASSERT_FALSE(rm.saturated);
  EXPECT_NE(ri.latency, rb.latency);
  EXPECT_NE(rm.latency, rb.latency);
}

// A ResultStore whose writes block until the test releases them: while the
// owning thread is stuck inside store_model/store_sim (outside the engine's
// lock, before the in-flight entry is removed), every concurrent caller of
// the same key must park on the in-flight registration. That makes the
// dedup path deterministic to assert: wait until all N-1 waiters have
// registered, open the gate, and exactly one solve must have happened.
class GatedStore final : public ResultStore {
 public:
  bool load_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                  ModelEntry* out) override {
    return mem_.load_model(spec_key, lambda_bits, out);
  }
  void store_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                   const ModelEntry& entry) override {
    wait_open();
    mem_.store_model(spec_key, lambda_bits, entry);
  }
  bool load_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                std::uint64_t seed, sim::SimResult* out) override {
    return mem_.load_sim(spec_key, lambda_bits, seed, out);
  }
  void store_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                 std::uint64_t seed, const sim::SimResult& result) override {
    wait_open();
    mem_.store_sim(spec_key, lambda_bits, seed, result);
  }
  bool load_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                       SaturationResult* out) override {
    return mem_.load_saturation(spec_key, tol_bits, out);
  }
  void store_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                        const SaturationResult& result) override {
    mem_.store_saturation(spec_key, tol_bits, result);
  }
  StoreSizes sizes() const override { return mem_.sizes(); }
  void clear() override { mem_.clear(); }
  const char* kind() const noexcept override { return "gated"; }

  void release() {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  void wait_open() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] { return open_; });
  }

  MemoryResultStore mem_;
  std::mutex m_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Polls the engine's dedup counter until `expected` waiters are parked.
void await_inflight_waits(const SweepEngine& engine, std::uint64_t expected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (engine.cache_stats().inflight_waits < expected) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "dedup waiters never registered";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SweepEngine, ConcurrentIdenticalModelPointsPayExactlyOneSolve) {
  auto store = std::make_shared<GatedStore>();
  SweepEngine engine(small_scenario(), store);
  constexpr int kCallers = 4;
  const double lambda = 2e-4;

  std::vector<model::ModelResult> results(kCallers);
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back([&, i] { results[i] = engine.model_point(lambda); });
  }
  // The owner is blocked publishing; everyone else must end up waiting on
  // its in-flight entry rather than solving.
  await_inflight_waits(engine, kCallers - 1);
  store->release();
  for (auto& t : threads) t.join();

  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.model_solves, 1u);
  EXPECT_EQ(stats.inflight_waits, static_cast<std::uint64_t>(kCallers - 1));
  EXPECT_EQ(stats.model_hits, 0u);
  EXPECT_EQ(engine.inflight_solves(), 0u);
  for (int i = 1; i < kCallers; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(results[i].latency),
              std::bit_cast<std::uint64_t>(results[0].latency));
    EXPECT_EQ(results[i].iterations, results[0].iterations);
  }
}

TEST(SweepEngine, ConcurrentIdenticalSimPointsPayExactlyOneRun) {
  auto store = std::make_shared<GatedStore>();
  SweepEngine engine(small_scenario(), store);
  constexpr int kCallers = 3;
  const double lambda = 5e-4;
  const std::uint64_t seed = 42;

  std::vector<sim::SimResult> results(kCallers);
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = engine.sim_point(lambda, seed); });
  }
  await_inflight_waits(engine, kCallers - 1);
  store->release();
  for (auto& t : threads) t.join();

  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.sim_runs, 1u);
  EXPECT_EQ(stats.inflight_waits, static_cast<std::uint64_t>(kCallers - 1));
  EXPECT_EQ(engine.inflight_solves(), 0u);
  for (int i = 1; i < kCallers; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(results[i].mean_latency),
              std::bit_cast<std::uint64_t>(results[0].mean_latency));
    EXPECT_EQ(results[i].measured_messages, results[0].measured_messages);
  }
}

TEST(SweepEngine, SharedStoreServesASecondEngineWithoutResolving) {
  auto store = std::make_shared<MemoryResultStore>();
  const ScenarioSpec spec = small_scenario();
  const double lambda = 3e-4;

  model::ModelResult cold;
  {
    SweepEngine first(spec, store);
    cold = first.model_point(lambda);
    EXPECT_EQ(first.cache_stats().model_solves, 1u);
  }
  // The first engine is gone; the store carries its solve to the next one.
  SweepEngine second(spec, store);
  const model::ModelResult warm = second.model_point(lambda);
  const CacheStats stats = second.cache_stats();
  EXPECT_EQ(stats.model_solves, 0u);
  EXPECT_EQ(stats.model_hits, 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.latency),
            std::bit_cast<std::uint64_t>(cold.latency));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every ModelResult field, doubles as raw bits.
std::vector<std::uint64_t> model_words(const model::ModelResult& m) {
  return {bits(m.latency), m.saturated, m.converged,
          static_cast<std::uint64_t>(m.iterations), bits(m.regular_latency),
          bits(m.hot_latency), bits(m.regular_network_latency),
          bits(m.source_wait_regular), bits(m.vc_mux_x), bits(m.vc_mux_hot_y),
          bits(m.vc_mux_nonhot_y), bits(m.max_channel_utilization)};
}

/// A memory store that records the thread of every lookup.
class RecordingStore final : public ResultStore {
 public:
  bool load_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                  ModelEntry* out) override {
    note();
    return mem_.load_model(spec_key, lambda_bits, out);
  }
  void store_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                   const ModelEntry& entry) override {
    mem_.store_model(spec_key, lambda_bits, entry);
  }
  bool load_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                std::uint64_t seed, sim::SimResult* out) override {
    note();
    return mem_.load_sim(spec_key, lambda_bits, seed, out);
  }
  void store_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                 std::uint64_t seed, const sim::SimResult& result) override {
    mem_.store_sim(spec_key, lambda_bits, seed, result);
  }
  bool load_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                       SaturationResult* out) override {
    note();
    return mem_.load_saturation(spec_key, tol_bits, out);
  }
  void store_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                        const SaturationResult& result) override {
    mem_.store_saturation(spec_key, tol_bits, result);
  }
  StoreSizes sizes() const override { return mem_.sizes(); }
  void clear() override { mem_.clear(); }
  const char* kind() const noexcept override { return "recording"; }

  /// The threads of the lookups since the last call, and forgets them.
  std::vector<std::thread::id> take_lookups() {
    std::lock_guard<std::mutex> lock(m_);
    return std::exchange(lookups_, {});
  }

 private:
  void note() {
    std::lock_guard<std::mutex> lock(m_);
    lookups_.push_back(std::this_thread::get_id());
  }

  MemoryResultStore mem_;
  std::mutex m_;
  std::vector<std::thread::id> lookups_;
};

TEST(SweepEngine, AStoredRunIsAnsweredOnTheCallingThread) {
  auto store = std::make_shared<RecordingStore>();
  SweepEngine engine(small_scenario(), store);
  const std::vector<double> lambdas = {1e-4, 2e-4, 3e-4, 4e-4};
  const std::vector<double> simulated = {1e-4, 3e-4};
  const std::vector<PointResult> cold = engine.run(lambdas, /*run_sim=*/false);
  EXPECT_EQ(engine.model_compiles(), 1u);

  // Stored models but no stored sims: each point goes to the pool whole and
  // counts its model hit once, as model_point does.
  const std::vector<PointResult> cold_sims = engine.run(simulated, true);
  EXPECT_EQ(engine.cache_stats().model_hits, 2u);
  EXPECT_EQ(engine.cache_stats().sim_runs, 2u);

  store->take_lookups();
  const std::vector<PointResult> warm = engine.run(lambdas, false);
  const std::vector<PointResult> warm_sims = engine.run(simulated, true);
  const std::vector<std::thread::id> lookups = store->take_lookups();
  EXPECT_EQ(lookups.size(), lambdas.size() + 2 * simulated.size());
  for (const std::thread::id id : lookups) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(engine.model_compiles(), 1u);
  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.model_hits, 2u + lambdas.size() + simulated.size());
  EXPECT_EQ(stats.sim_hits, simulated.size());
  EXPECT_EQ(stats.model_solves, lambdas.size());
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    EXPECT_EQ(model_words(warm[i].model), model_words(cold[i].model));
  }
  for (std::size_t i = 0; i < simulated.size(); ++i) {
    EXPECT_EQ(sim::result_words(warm_sims[i].sim),
              sim::result_words(cold_sims[i].sim));
    EXPECT_TRUE(warm_sims[i].has_model && warm_sims[i].has_sim);
  }
}

TEST(SweepEngine, SimRunMatchesASerialIndexOrderLoop) {
  // run(.., true) solves and simulates its points in parallel, finishing in
  // any order; the points must still be exactly those of solving and
  // simulating index by index, each point with its positional seed. Unsorted
  // input with a duplicate lambda: the two copies keep their own seeds,
  // hence their own simulations.
  const ScenarioSpec spec = small_scenario();
  const std::vector<double> lambdas = {3e-4, 9e-4, 1e-4, 6e-4, 9e-4};
  SweepEngine engine(spec);
  const std::vector<PointResult> pts = engine.run(lambdas, /*run_sim=*/true);
  ASSERT_EQ(pts.size(), lambdas.size());

  SweepEngine serial(spec);
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(bits(pts[i].lambda), bits(lambdas[i]));
    ASSERT_TRUE(pts[i].has_model);
    ASSERT_TRUE(pts[i].has_sim);
    EXPECT_EQ(model_words(pts[i].model), model_words(serial.model_point(lambdas[i])));
    const sim::SimResult ref = serial.sim_point(lambdas[i], serial.point_seed(i));
    EXPECT_EQ(sim::result_words(pts[i].sim),
              sim::result_words(ref));
    EXPECT_EQ(pts[i].sim.sim_shards, ref.sim_shards);
    EXPECT_EQ(pts[i].sim.sim_shards_requested, ref.sim_shards_requested);
  }
  EXPECT_NE(bits(pts[1].sim.mean_latency), bits(pts[4].sim.mean_latency));
}

TEST(CacheStats, FormatsEveryCounterInCanonicalOrder) {
  CacheStats s;
  s.model_entries = 1;
  s.sim_entries = 2;
  s.saturation_entries = 3;
  s.model_hits = 4;
  s.sim_hits = 5;
  s.saturation_hits = 6;
  s.model_solves = 7;
  s.sim_runs = 8;
  s.inflight_waits = 9;
  EXPECT_EQ(format_cache_stats(s),
            "model_entries=1 sim_entries=2 saturation_entries=3 model_hits=4 "
            "sim_hits=5 saturation_hits=6 model_solves=7 sim_runs=8 "
            "inflight_waits=9");
}

TEST(SweepEngine, NanRateOnASimOnlySpecThrows) {
  // No model guards a sim-only spec, so the simulator's own validation must
  // reject the rate instead of reporting a latency for a network with no
  // traffic.
  ScenarioSpec spec = small_scenario();
  spec.traffic = UniformTraffic{};
  spec.torus().bidirectional = true;
  SweepEngine engine(spec);
  ASSERT_FALSE(engine.has_model());
  EXPECT_THROW(engine.run({std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
}

TEST(SweepEngine, RelativeErrorIsNanOnDegenerateSim) {
  PointResult p;
  p.has_model = true;
  p.has_sim = true;
  p.model.saturated = false;
  p.model.latency = 60.0;
  p.sim.mean_latency = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(p.relative_error()));
  p.sim.mean_latency = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(p.relative_error()));
  p.sim.mean_latency = -5.0;
  EXPECT_TRUE(std::isnan(p.relative_error()));
  // A non-finite model latency that slipped past the saturation flag must
  // not produce inf.
  p.sim.mean_latency = 50.0;
  p.model.latency = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(p.relative_error()));
}

}  // namespace
}  // namespace kncube::core
