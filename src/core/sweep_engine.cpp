#include "core/sweep_engine.hpp"

#include <bit>
#include <stdexcept>

#include "core/saturation.hpp"
#include "util/thread_pool.hpp"

namespace kncube::core {

namespace {

std::uint64_t lambda_key(double lambda) {
  return std::bit_cast<std::uint64_t>(lambda);
}

}  // namespace

SweepEngine::SweepEngine(ScenarioSpec spec, std::shared_ptr<ResultStore> store)
    : spec_(std::move(spec)), store_(std::move(store)) {
  ModelDispatch dispatch = make_analytical_model(spec_);  // validates spec_
  model_ = std::move(dispatch.model);
  sim_only_reason_ = std::move(dispatch.sim_only_reason);
  spec_key_ = spec_.key();
  if (!store_) store_ = std::make_shared<MemoryResultStore>();
}

const model::AnalyticalModel& SweepEngine::analytical_model() const {
  if (!model_) {
    throw std::logic_error("SweepEngine: scenario is sim-only (" +
                           sim_only_reason_ + ")");
  }
  return *model_;
}

std::uint64_t SweepEngine::point_seed(std::size_t index) const noexcept {
  // Golden-ratio stride decorrelates points while keeping series
  // reproducible across runs and scheduling orders.
  return spec_.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
}

const model::CompiledModel& SweepEngine::CallModel::get() {
  std::call_once(once_, [this] {
    compiled_ = engine_.analytical_model().compile();
    std::lock_guard<std::mutex> lock(engine_.mutex_);
    ++engine_.model_compiles_;
  });
  return *compiled_;
}

model::ModelResult SweepEngine::model_point(double lambda) {
  CallModel model(*this);
  return model_point(lambda, model);
}

// Memoization with in-flight dedup: a miss registers itself as the key's
// owner before solving, so concurrent callers of the same key find the
// registration and wait for the owner's result instead of recomputing —
// exactly one solve per distinct key, no matter how many clients race on
// it. The owner publishes to the store *before* deregistering, so a caller
// always sees either the store entry or the in-flight registration, never a
// gap. Waiting never deadlocks the thread pool: the owner runs the solve
// synchronously on its own thread (it is never parked in the queue), so
// every waiter has a running producer.
model::ModelResult SweepEngine::model_point(double lambda, CallModel& model) {
  analytical_model();  // sim-only specs throw before touching the store
  const std::uint64_t key = lambda_key(lambda);
  std::shared_ptr<Inflight<model::ModelResult>> inflight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ModelEntry cached;
    if (store_->load_model(spec_key_, key, &cached)) {
      ++model_hits_;
      return cached.result;
    }
    if (auto it = inflight_model_.find(key); it != inflight_model_.end()) {
      ++inflight_waits_;
      inflight = it->second;
    } else {
      inflight = std::make_shared<Inflight<model::ModelResult>>();
      inflight_model_.emplace(key, inflight);
      owner = true;
    }
  }
  if (!owner) return inflight->wait();

  model::ModelResult result;
  try {
    result = model.get().solve(lambda);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_model_.erase(key);
    }
    inflight->fail(e.what());
    throw;
  }
  store_->store_model(spec_key_, key, ModelEntry{result});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++model_solves_;
    inflight_model_.erase(key);
  }
  inflight->fulfill(result);
  return result;
}

sim::SimResult SweepEngine::sim_point(double lambda, std::uint64_t seed) {
  const auto key = std::make_pair(lambda_key(lambda), seed);
  std::shared_ptr<Inflight<sim::SimResult>> inflight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sim::SimResult cached;
    if (store_->load_sim(spec_key_, key.first, key.second, &cached)) {
      ++sim_hits_;
      return cached;
    }
    if (auto it = inflight_sim_.find(key); it != inflight_sim_.end()) {
      ++inflight_waits_;
      inflight = it->second;
    } else {
      inflight = std::make_shared<Inflight<sim::SimResult>>();
      inflight_sim_.emplace(key, inflight);
      owner = true;
    }
  }
  if (!owner) return inflight->wait();

  sim::SimResult r;
  try {
    sim::SimConfig cfg = to_sim_config(spec_, lambda);
    cfg.seed = seed;
    r = sim::simulate(cfg);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_sim_.erase(key);
    }
    inflight->fail(e.what());
    throw;
  }
  store_->store_sim(spec_key_, key.first, key.second, r);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++sim_runs_;
    inflight_sim_.erase(key);
  }
  inflight->fulfill(r);
  return r;
}

std::vector<PointResult> SweepEngine::run(const std::vector<double>& lambdas,
                                          bool run_sim) {
  std::vector<PointResult> results(lambdas.size());
  // Answer what the store holds here, counting hits as model_point and
  // sim_point would; a point the store cannot answer whole goes to the pool.
  std::vector<std::size_t> misses;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      PointResult& pt = results[i];
      pt.lambda = lambdas[i];
      const std::uint64_t key = lambda_key(pt.lambda);
      ModelEntry cached;
      const bool hit =
          (!model_ || store_->load_model(spec_key_, key, &cached)) &&
          (!run_sim || store_->load_sim(spec_key_, key, point_seed(i), &pt.sim));
      if (!hit) {
        misses.push_back(i);
        continue;
      }
      if (model_) {
        pt.model = cached.result;
        pt.has_model = true;
        ++model_hits_;
      }
      if (run_sim) {
        pt.has_sim = true;
        ++sim_hits_;
      }
    }
  }
  CallModel model(*this);
  util::parallel_for(misses.size(), [&](std::size_t m) {
    const std::size_t i = misses[m];
    PointResult& pt = results[i];
    if (model_) {
      pt.model = model_point(pt.lambda, model);
      pt.has_model = true;
    }
    if (run_sim) {
      pt.sim = sim_point(pt.lambda, point_seed(i));
      pt.has_sim = true;
    }
  });
  return results;
}

SaturationResult SweepEngine::saturation_rate() {
  const model::AnalyticalModel& analytical = analytical_model();
  // Stored under the tolerance's bits: the ResultStore interface keeps a
  // tolerance dimension, though the library bisects to one width only.
  const std::uint64_t key = lambda_key(kModelSaturationRelTol);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SaturationResult cached;
    if (store_->load_saturation(spec_key_, key, &cached)) {
      ++saturation_hits_;
      return cached;
    }
  }
  // Concurrent first-time callers may both bisect; the probes dedup through
  // model_point, so the duplicate work is a handful of store hits.
  CallModel model(*this);
  const double guess = analytical.estimated_saturation_rate();
  const SaturationResult res =
      bisect_saturation(guess, kModelSaturationRelTol, [this, &model](double rate) {
        return !model_point(rate, model).saturated;
      });
  store_->store_saturation(spec_key_, key, res);
  return res;
}

std::vector<double> SweepEngine::lambda_sweep(int points, double lo_frac,
                                              double hi_frac) {
  return sweep_rates(saturation_rate(), points, lo_frac, hi_frac);
}

CacheStats SweepEngine::cache_stats() const {
  const StoreSizes sizes = store_->sizes();
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats s;
  s.model_entries = sizes.model;
  s.sim_entries = sizes.sim;
  s.saturation_entries = sizes.saturation;
  s.model_hits = model_hits_;
  s.sim_hits = sim_hits_;
  s.saturation_hits = saturation_hits_;
  s.model_solves = model_solves_;
  s.sim_runs = sim_runs_;
  s.inflight_waits = inflight_waits_;
  return s;
}

std::size_t SweepEngine::inflight_solves() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_model_.size() + inflight_sim_.size();
}

std::uint64_t SweepEngine::model_compiles() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_compiles_;
}

void SweepEngine::clear_cache() {
  store_->clear();
  std::lock_guard<std::mutex> lock(mutex_);
  model_hits_ = 0;
  sim_hits_ = 0;
  saturation_hits_ = 0;
  model_solves_ = 0;
  sim_runs_ = 0;
  inflight_waits_ = 0;
  model_compiles_ = 0;
}

}  // namespace kncube::core
