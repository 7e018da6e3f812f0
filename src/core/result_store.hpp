// ResultStore: the storage interface behind SweepEngine memoization.
//
// SweepEngine originally held its memo maps inline, so every cached fixed
// point and simulation died with the process. Lifting the maps behind this
// interface lets one store outlive an engine, be shared by many engines
// (the capacity-planning daemon keys entries by the spec's canonical
// key(), so one store serves every scenario), and be backed by disk
// (service/disk_store.hpp) so repeated what-if queries across process
// restarts pay each distinct (spec, lambda) solve exactly once, ever.
//
// Contract:
//  * Keys are (spec_key, lambda_bits[, seed]) — spec_key is
//    ScenarioSpec::key(), lambda_bits the IEEE-754 bit pattern of the rate,
//    seed the simulator seed.
//  * Stored values are returned bit-identical to what was stored. A model
//    solve always starts from the zero-load state, so its result is a pure
//    function of (spec, lambda), and answers served from a store —
//    including one written by a previous process — are bit-identical to a
//    cold in-process computation. tests/service/disk_store_test pins this
//    across a store reopen.
//  * Implementations are internally synchronized: any method may be called
//    from any thread (SweepEngine batches points onto the global pool, and
//    the daemon shares one store across connections).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/saturation.hpp"
#include "model/analytical_model.hpp"
#include "sim/simulator.hpp"

namespace kncube::core {

/// Cached model solve. Trivially copyable: the disk store writes its raw
/// bytes as a fixed-size record.
struct ModelEntry {
  model::ModelResult result;
};

/// One engine's cache counters plus its store's entry counts, as a single
/// value: logged by `kncube_run --verbose`, rendered into the daemon's
/// per-request stats line, and asserted by the dedup/restart tests. Entry
/// counts come from the backing store, so with a shared (multi-spec) store
/// they count entries across *all* scenarios; the hit/solve/wait counters
/// are per-engine.
struct CacheStats {
  std::uint64_t model_entries = 0;
  std::uint64_t sim_entries = 0;
  std::uint64_t saturation_entries = 0;
  std::uint64_t model_hits = 0;
  std::uint64_t sim_hits = 0;
  std::uint64_t saturation_hits = 0;
  /// Fixed points / simulations actually computed (misses that did work).
  std::uint64_t model_solves = 0;
  std::uint64_t sim_runs = 0;
  /// In-flight dedup: calls that found another thread already solving their
  /// exact key and waited for its result instead of recomputing.
  std::uint64_t inflight_waits = 0;
};

/// Every CacheStats counter with its `k=v` name, in canonical order: what
/// format_cache_stats writes and the daemon's STATS parser reads.
inline constexpr std::pair<std::string_view, std::uint64_t CacheStats::*>
    kCacheStatsFields[] = {
        {"model_entries", &CacheStats::model_entries},
        {"sim_entries", &CacheStats::sim_entries},
        {"saturation_entries", &CacheStats::saturation_entries},
        {"model_hits", &CacheStats::model_hits},
        {"sim_hits", &CacheStats::sim_hits},
        {"saturation_hits", &CacheStats::saturation_hits},
        {"model_solves", &CacheStats::model_solves},
        {"sim_runs", &CacheStats::sim_runs},
        {"inflight_waits", &CacheStats::inflight_waits},
};

/// `k=v` space-separated rendering, one canonical order — the shared format
/// of the daemon's STATS line and kncube_run's --verbose cache line.
std::string format_cache_stats(const CacheStats& stats);

struct StoreSizes {
  std::uint64_t model = 0;
  std::uint64_t sim = 0;
  std::uint64_t saturation = 0;
};

class ResultStore {
 public:
  virtual ~ResultStore() = default;

  /// Loads the cached solve for (spec_key, lambda_bits) into `*out`;
  /// returns false on a miss (out untouched).
  virtual bool load_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                          ModelEntry* out) = 0;
  virtual void store_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                           const ModelEntry& entry) = 0;

  /// Always false. Model solves no longer warm-start; this stays only
  /// because the frozen benchmark harness (perfbench/) overrides it.
  virtual bool warm_state_at_or_below(std::uint64_t /*spec_key*/,
                                      std::uint64_t /*lambda_bits*/,
                                      std::vector<double>* /*state*/) {
    return false;
  }

  virtual bool load_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                        std::uint64_t seed, sim::SimResult* out) = 0;
  virtual void store_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                         std::uint64_t seed, const sim::SimResult& result) = 0;

  /// `tol_bits` is always the bits of kModelSaturationRelTol; the key keeps
  /// the dimension because the frozen benchmark harness (perfbench/)
  /// overrides this interface.
  virtual bool load_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                               SaturationResult* out) = 0;
  virtual void store_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                                const SaturationResult& result) = 0;

  virtual StoreSizes sizes() const = 0;

  /// Drops every entry (all spec keys — a shared store is wiped for every
  /// engine using it). Tests and explicit cache resets only.
  virtual void clear() = 0;

  /// Makes everything stored so far durable (no-op for memory stores).
  virtual void flush() {}

  /// "memory" / "disk" — for stats lines and logs.
  virtual const char* kind() const noexcept = 0;
};

/// The in-process map store SweepEngine always had, now shareable between
/// engines. Internally synchronized.
class MemoryResultStore final : public ResultStore {
 public:
  bool load_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                  ModelEntry* out) override;
  void store_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                   const ModelEntry& entry) override;
  bool load_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                std::uint64_t seed, sim::SimResult* out) override;
  void store_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                 std::uint64_t seed, const sim::SimResult& result) override;
  bool load_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                       SaturationResult* out) override;
  void store_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                        const SaturationResult& result) override;
  StoreSizes sizes() const override;
  void clear() override;
  const char* kind() const noexcept override { return "memory"; }

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, ModelEntry> model_;
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
           sim::SimResult>
      sim_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, SaturationResult>
      saturation_;
};

}  // namespace kncube::core
