// SweepEngine: batched evaluation of operating points for one scenario.
//
// Every consumer of the library — benches, examples, the saturation search,
// parameter studies, the capacity-planning daemon — ultimately evaluates
// (scenario, lambda) points. The engine centralises that loop for *any*
// valid ScenarioSpec: the model registry (core/model_registry.hpp)
// dispatches the spec to its model::AnalyticalModel at construction, and
// every model_point goes through it; sim-only specs (the cases the registry
// lists: permutation patterns, faulty networks, bidirectional links, n ≠ 2
// tori, an off-centre mesh hot node, MMPP arrivals off the torus, ...)
// still run simulations through the same engine with the model side
// reported absent. Points are batched across the global thread
// pool (util/thread_pool, KNCUBE_THREADS), simulator seeds are derived
// per-point so series are reproducible regardless of scheduling, and
// repeated points are memoized through a pluggable ResultStore
// (core/result_store.hpp):
//
//  * model solves are deterministic in (scenario, lambda) — every solve
//    starts from the zero-load state, so the ModelResult, iteration count
//    included, depends on nothing else — and model entries are keyed by
//    (spec key, lambda bits): overlapping sweeps (e.g. a saturation
//    bisection followed by a figure sweep, or two panels sharing a grid)
//    pay for each fixed point once;
//  * simulator runs are only deterministic given a seed, so sim entries are
//    keyed by (spec key, lambda bits, seed). Identical lambdas at
//    *different* point indices derive different seeds on purpose: they are
//    independent replicates, not cache hits.
//
// The default store is a private in-memory map (the engine behaves exactly
// as it always did); passing a shared store — in particular the disk-backed
// service::DiskResultStore — makes cached answers outlive the engine and
// the process. Stored results are returned bit-identical to the cold
// computation, so a store hit is indistinguishable from solving again, and
// the order in which points are solved never changes an answer.
//
// Concurrent identical requests are deduplicated in flight: when a point
// misses the store but another thread is already computing that exact key,
// the caller waits for that solve instead of recomputing — N clients asking
// for the same (spec, lambda) pay one fixed point. The dedup counter is
// part of CacheStats and pinned by tests/core/sweep_engine_test.
//
// Each run() and saturation_rate() call compiles the model
// (model::AnalyticalModel::compile) at most once: on the call's first store
// miss, outside the engine mutex, shared read-only by every pool lane of the
// call and destroyed when the call returns (DESIGN.md §5.3). Nothing compiles
// in the constructor or on a call whose points all hit the store, and no
// compiled model outlives its call, so an engine's memory does not grow with
// the models it has solved.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/model_registry.hpp"
#include "core/result_store.hpp"
#include "core/saturation.hpp"

namespace kncube::core {

class SweepEngine {
 public:
  /// Dispatches `spec` through the model registry; throws
  /// std::invalid_argument when the spec is invalid. `store` (optional)
  /// backs the memoization — pass a shared store to persist results beyond
  /// this engine; the default is a private in-memory store.
  explicit SweepEngine(ScenarioSpec spec,
                       std::shared_ptr<ResultStore> store = nullptr);

  const ScenarioSpec& spec() const noexcept { return spec_; }
  /// The spec's canonical key — the store's scenario dimension.
  std::uint64_t spec_key() const noexcept { return spec_key_; }
  const std::shared_ptr<ResultStore>& store() const noexcept { return store_; }

  /// True when the registry dispatched an analytical model for this spec.
  bool has_model() const noexcept { return model_.has_value(); }
  /// Why the spec is sim-only (empty when has_model()).
  const std::string& sim_only_reason() const noexcept { return sim_only_reason_; }
  /// The dispatched model; throws std::logic_error for sim-only specs.
  const model::AnalyticalModel& analytical_model() const;

  /// Runs `lambdas` through the model (when one exists) and (when `run_sim`)
  /// the simulator; results come back in input order. Every point is first
  /// looked up under one hold of the engine lock, and the points the store
  /// answers whole are answered on the calling thread. Only the rest run on
  /// the global thread pool, so a run of stored points wakes no pool worker.
  std::vector<PointResult> run(const std::vector<double>& lambdas,
                               bool run_sim = true);

  /// One model evaluation, memoized through the store and deduplicated
  /// against identical in-flight solves; a miss compiles the model for this
  /// call alone. Throws std::logic_error for sim-only specs.
  model::ModelResult model_point(double lambda);

  /// One simulation, memoized on (lambda, seed) and deduplicated in flight.
  sim::SimResult sim_point(double lambda, std::uint64_t seed);

  /// The model's saturation boundary, bisected to kModelSaturationRelTol
  /// through the memoized model_point probes; the result itself is cached,
  /// so repeated sweeps locate the boundary once. Throws std::logic_error
  /// for sim-only specs.
  SaturationResult saturation_rate();

  /// A sweep of `points` rates from `lo_frac` to `hi_frac` of the model's
  /// saturation rate (found by bisection), mirroring how the paper's figures
  /// sample each curve from light load up to the latency asymptote. A caller
  /// that already holds the saturation result builds the same grid with
  /// core::sweep_rates, which asks the store nothing.
  std::vector<double> lambda_sweep(int points, double lo_frac = 0.1,
                                   double hi_frac = 0.95);

  /// Simulator seed for point `index`: decorrelated across indices, stable
  /// across runs and scheduling.
  std::uint64_t point_seed(std::size_t index) const noexcept;

  // --- memoization introspection (tests, stats lines, diagnostics) ---

  /// Entry counts (from the store — global across specs when the store is
  /// shared) plus this engine's hit/solve/dedup counters.
  CacheStats cache_stats() const;
  /// Solves this engine currently has in flight (owner threads running).
  std::size_t inflight_solves() const;
  /// Models this engine has compiled: at most one per run(),
  /// saturation_rate() or model_point() call, and none for a call whose
  /// model points all hit the store.
  std::uint64_t model_compiles() const;

  /// Clears the backing store (every spec, when shared) and the counters.
  void clear_cache();

 private:
  /// The model compiled for one call, lazily on the call's first store miss
  /// (std::call_once, outside the engine mutex) and shared read-only by
  /// every lane of the call.
  class CallModel {
   public:
    explicit CallModel(SweepEngine& engine) : engine_(engine) {}
    const model::CompiledModel& get();

   private:
    SweepEngine& engine_;
    std::once_flag once_;
    std::unique_ptr<const model::CompiledModel> compiled_;
  };

  model::ModelResult model_point(double lambda, CallModel& model);

  /// Rendezvous for threads that asked for a key another thread is already
  /// computing: the owner fulfills (or fails) it once, waiters block on the
  /// condition variable. Failure rethrows in every waiter.
  template <typename T>
  struct Inflight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    std::string error;
    T value{};

    void fulfill(const T& v) {
      {
        std::lock_guard<std::mutex> lock(m);
        value = v;
        done = true;
      }
      cv.notify_all();
    }
    void fail(const std::string& why) {
      {
        std::lock_guard<std::mutex> lock(m);
        failed = true;
        error = why;
        done = true;
      }
      cv.notify_all();
    }
    T wait() {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [this] { return done; });
      if (failed) throw std::runtime_error(error);
      return value;
    }
  };

  ScenarioSpec spec_;
  std::uint64_t spec_key_ = 0;
  std::shared_ptr<ResultStore> store_;
  std::optional<model::AnalyticalModel> model_;  ///< nullopt for sim-only specs
  std::string sim_only_reason_;

  mutable std::mutex mutex_;  ///< counters + in-flight maps
  std::map<std::uint64_t, std::shared_ptr<Inflight<model::ModelResult>>>
      inflight_model_;
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::shared_ptr<Inflight<sim::SimResult>>>
      inflight_sim_;
  std::uint64_t model_hits_ = 0;
  std::uint64_t sim_hits_ = 0;
  std::uint64_t saturation_hits_ = 0;
  std::uint64_t model_solves_ = 0;
  std::uint64_t sim_runs_ = 0;
  std::uint64_t inflight_waits_ = 0;
  std::uint64_t model_compiles_ = 0;
};

}  // namespace kncube::core
