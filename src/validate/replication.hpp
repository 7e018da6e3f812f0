// ReplicationRunner: replication-based simulation measurement.
//
// One simulator run is a single sample path: its mean latency carries
// sampling noise that a point tolerance cannot distinguish from model error.
// The runner executes R independent replications of the same ScenarioSpec
// operating point — identical in every knob except the seed, which is a
// per-replication stream derived from the spec's canonical key()
// (sim::replication_seed) — and aggregates the per-replication means into
// Student-t confidence intervals (util::stats).
//
// Determinism: replication r always receives the same seed regardless of
// which worker thread runs it or how many workers exist, results are
// collected into slot r of a pre-sized vector, and every aggregate is folded
// sequentially in replication order after the parallel phase — so the entire
// ReplicationPoint is bit-identical across thread counts and schedules
// (pinned by tests/validate/replication_test.cpp).
//
// Composition with intra-simulation sharding: the runner's worker pool
// parallelises *across* replications while ScenarioSpec::sim_threads shards
// *within* each replication's Network::step — the two nest freely. Since
// sim.threads is excluded from the spec key(), per-replication seeds are
// unchanged by it, and sharding itself is bit-identical, so any
// (outer workers × inner sim_threads) combination reproduces the serial
// ReplicationPoint exactly. Note the thread budgets multiply: R outer
// workers each spin up sim_threads-1 extra team threads.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scenario_spec.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace kncube::validate {

/// Confidence level of every replication interval, recorded in the config
/// block of ACCURACY.json and RELIABILITY.json.
inline constexpr double kConfidence = 0.95;

/// Aggregated measurement of one (spec, lambda) operating point over R
/// independent replications. Each interval is over the per-replication means
/// (R samples), not the per-message population.
struct ReplicationPoint {
  double lambda = 0.0;
  int replications = 0;

  util::ConfidenceInterval latency;          ///< mean message latency, cycles
  util::ConfidenceInterval network_latency;  ///< head-in to tail-out, cycles
  util::ConfidenceInterval throughput;       ///< accepted load, msgs/node/cycle

  int saturated_replications = 0;
  int steady_replications = 0;

  /// Per-replication raw results, indexed by replication number.
  std::vector<sim::SimResult> results;

  /// Majority-vote saturation: a point is called saturated when more than
  /// half its replications hit the backlog-growth criterion.
  bool saturated() const noexcept {
    return 2 * saturated_replications > replications;
  }

  /// Unweighted mean of `get(result)` over the replications — the single
  /// aggregation convention for SimResult fields without a dedicated CI
  /// (per-class latencies, source wait, generated load, ...).
  template <typename Get>
  double mean_of(Get get) const {
    double acc = 0.0;
    for (const sim::SimResult& r : results) acc += get(r);
    return results.empty() ? 0.0 : acc / static_cast<double>(results.size());
  }
};

class ReplicationRunner {
 public:
  /// `replications` independent runs per operating point; `pool == nullptr`
  /// uses the process-wide pool (util::global_pool / KNCUBE_THREADS).
  /// Throws std::invalid_argument when the spec is invalid or R < 1.
  explicit ReplicationRunner(core::ScenarioSpec spec, int replications = 5,
                             util::ThreadPool* pool = nullptr);

  const core::ScenarioSpec& spec() const noexcept { return spec_; }
  int replications() const noexcept { return replications_; }

  /// Seed for replication `r`: sim::replication_seed over the spec's
  /// canonical key and configured base seed.
  std::uint64_t replication_seed(int r) const noexcept;

  /// Runs the R replications of one operating point in parallel and
  /// aggregates. Deterministic across thread counts.
  ReplicationPoint run(double lambda) const;

  /// Runs several operating points, parallelising over the full
  /// (point, replication) grid so a single near-saturation point cannot
  /// serialise the sweep. Results come back in input order.
  std::vector<ReplicationPoint> run(const std::vector<double>& lambdas) const;

 private:
  ReplicationPoint aggregate(double lambda,
                             std::vector<sim::SimResult> results) const;

  core::ScenarioSpec spec_;
  std::uint64_t spec_key_ = 0;
  int replications_ = 5;
  util::ThreadPool* pool_ = nullptr;  ///< null -> global pool
};

}  // namespace kncube::validate
