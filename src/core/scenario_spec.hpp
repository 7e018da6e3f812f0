// ScenarioSpec v2: the one typed scenario language of the library.
//
// A ScenarioSpec is a self-describing value covering the whole
// (topology × traffic × arrivals) space the code implements — the hot-spot
// 2-D torus the paper analyses, the uniform/hypercube baselines it validates
// against, the k-ary n-mesh (wrap-around links removed; position-dependent
// channel load), MMPP bursts, and the simulator-only extensions
// (permutation patterns, bidirectional links, n ≠ 2 tori, faults). Every
// workload flows through this type into the core facade: `SweepEngine`,
// `sim_saturation_rate` and `to_sim_config` all accept a spec, and the
// model registry (core/model_registry.hpp) dispatches it to
// the matching analytical model — or reports "sim-only" when no analytical
// counterpart exists.
//
// Specs are file- and CLI-drivable: `format_scenario` emits a canonical
// `key=value` text form, `parse_scenario` reads it back field-for-field, and
// `apply_scenario_setting` applies one `--set topology.k=32`-style override.
// `key()` is a canonical 64-bit hash of the spec (stable across processes)
// for caching and memoization keyed on whole scenarios. All four read one
// table of the grammar's fields (scenario_spec.cpp, DESIGN.md §5.1).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "model/engine/channel_class.hpp"  // BlockingVariant, ServiceBasis
#include "sim/config.hpp"
#include "topology/fault_set.hpp"  // topo::FailedLink

namespace kncube::core {

// --------------------------------------------------------------- topology ---

/// K-ary n-cube torus (the paper's substrate: n = 2, unidirectional).
struct TorusTopology {
  int k = 16;                  ///< radix
  int n = 2;                   ///< dimensions (<= topo::kMaxDims)
  bool bidirectional = false;  ///< paper analyses the unidirectional torus
};

/// Binary hypercube with 2^dims nodes (the k = 2 n-cube; paper ref. [12]).
struct HypercubeTopology {
  int dims = 6;
};

/// K-ary n-mesh: the torus with its wrap-around links removed. Links are
/// inherently bidirectional (a unidirectional line is disconnected) and
/// dimension-order routing is acyclic, so any V >= 1 is deadlock-free.
struct MeshTopology {
  int k = 8;  ///< radix
  int n = 2;  ///< dimensions (<= topo::kMaxDims)
};

using Topology = std::variant<TorusTopology, HypercubeTopology, MeshTopology>;

// ---------------------------------------------------------------- traffic ---

/// Pfister–Norton hot-spot traffic (the paper's assumption ii).
struct HotspotTraffic {
  double fraction = 0.2;       ///< h
  std::int64_t hot_node = -1;  ///< -1 picks the centre node (k/2, k/2, ...)
};

struct UniformTraffic {};
struct TransposeTraffic {};      ///< (x, y) -> (y, x); 2-D torus only
struct BitComplementTraffic {};  ///< dest id = N-1 - src id
struct BitReversalTraffic {};    ///< reverse node-index bits (N power of two)

using Traffic = std::variant<HotspotTraffic, UniformTraffic, TransposeTraffic,
                             BitComplementTraffic, BitReversalTraffic>;

// --------------------------------------------------------------- arrivals ---

/// Bernoulli(rate) per cycle: the discrete-time Poisson approximation the
/// analytical models assume.
struct BernoulliArrivals {};

/// Two-state modulated Bernoulli — the §5 bursty extension (modeled on the
/// torus families, sim-only elsewhere).
struct MmppArrivals {
  double burst_multiplier = 4.0;  ///< rate in burst state = mult * mean rate
  double p_enter_burst = 0.0005;  ///< idle -> burst transition prob per cycle
  double p_leave_burst = 0.002;   ///< burst -> idle transition prob per cycle
};

using Arrivals = std::variant<BernoulliArrivals, MmppArrivals>;

// ---------------------------------------------------------------- failures ---

/// Degraded-operation description: explicitly failed routers and directed
/// links plus a seed-derived random router-failure mode. The empty set is
/// the pristine network; pristine specs emit no `fault.*` lines, so every
/// pre-existing canonical text, key() and replication seed is unchanged.
/// Non-empty sets participate fully in the canonical text and key() —
/// memoization and the accuracy/reliability baselines see distinct faulty
/// scenarios as distinct. `random_seed` affects results only when the set is
/// non-empty (a pristine spec drops it from the text form entirely).
struct FailureSet {
  /// Failed router ids, strictly ascending (validate() enforces the
  /// canonical order; it also rules out duplicates).
  std::vector<std::int64_t> routers;
  /// Failed directed links, strictly ascending by (node, dim, dir).
  std::vector<topo::FailedLink> links;
  /// Random mode: fail round(rate * N) additional routers drawn from
  /// `random_seed` (hot-spot node protected). Must stay in [0, 1).
  double random_rate = 0.0;
  std::uint64_t random_seed = 1;

  bool empty() const noexcept {
    return routers.empty() && links.empty() && random_rate == 0.0;
  }
};

// ------------------------------------------------------------------- spec ---

struct ScenarioSpec {
  Topology topology = TorusTopology{};
  Traffic traffic = HotspotTraffic{};
  Arrivals arrivals = BernoulliArrivals{};
  FailureSet failures{};  ///< empty = pristine network

  // --- router ---
  int vcs = 2;           ///< V virtual channels per physical channel
  int buffer_depth = 2;  ///< simulator only (the model abstracts buffers away)

  // --- workload ---
  int message_length = 32;  ///< Lm flits

  // --- measurement (simulator side) ---
  std::uint64_t seed = 0xC0FFEE;
  std::uint64_t warmup_cycles = 20000;
  std::uint64_t target_messages = 2500;
  std::uint64_t max_cycles = 3'000'000;

  // --- model-approximation knobs (forwarded to the analytical models) ---
  model::BlockingVariant blocking = model::BlockingVariant::kPaper;
  model::ServiceBasis busy_basis = model::ServiceBasis::kTransmission;
  model::ServiceBasis vcmux_basis = model::ServiceBasis::kTransmission;

  // --- execution (simulator side; never affects results) ---
  /// Router shards for Network::step: 0 = hardware concurrency, 1 = serial,
  /// N > 1 = N shards. Results are bit-identical for every value, so this
  /// knob is excluded from key() — same scenario, same cache entry and
  /// replication seeds, regardless of how it is executed.
  int sim_threads = 1;

  /// Throws std::invalid_argument when the combination is inconsistent:
  /// every rule of to_sim_config(*this, λ).validate(), plus transpose off
  /// the hypercube and the MMPP rules that keep model and simulator on one
  /// offered load.
  void validate() const;

  /// Canonical 64-bit hash over every result-affecting field (FNV-1a of the
  /// canonical text form with `sim.*` execution lines skipped), stable
  /// across processes — the cache key for whole scenarios.
  std::uint64_t key() const;

  /// Node count N of the configured topology.
  std::uint64_t node_count() const noexcept;

  // Checked variant accessors, for call sites that know (or require) the
  // active alternative — `spec.torus().k = 32` reads better than get<>.
  // Each throws std::bad_variant_access on a mismatch.
  TorusTopology& torus() { return std::get<TorusTopology>(topology); }
  const TorusTopology& torus() const { return std::get<TorusTopology>(topology); }
  HypercubeTopology& hypercube() { return std::get<HypercubeTopology>(topology); }
  const HypercubeTopology& hypercube() const {
    return std::get<HypercubeTopology>(topology);
  }
  MeshTopology& mesh() { return std::get<MeshTopology>(topology); }
  const MeshTopology& mesh() const { return std::get<MeshTopology>(topology); }
  HotspotTraffic& hotspot() { return std::get<HotspotTraffic>(traffic); }
  const HotspotTraffic& hotspot() const { return std::get<HotspotTraffic>(traffic); }
  MmppArrivals& mmpp() { return std::get<MmppArrivals>(arrivals); }
  const MmppArrivals& mmpp() const { return std::get<MmppArrivals>(arrivals); }

  bool is_torus() const noexcept {
    return std::holds_alternative<TorusTopology>(topology);
  }
  bool is_hypercube() const noexcept {
    return std::holds_alternative<HypercubeTopology>(topology);
  }
  bool is_mesh() const noexcept {
    return std::holds_alternative<MeshTopology>(topology);
  }
  bool is_hotspot() const noexcept {
    return std::holds_alternative<HotspotTraffic>(traffic);
  }
  bool is_mmpp() const noexcept {
    return std::holds_alternative<MmppArrivals>(arrivals);
  }
};

/// Canonical text form: one `key=value` per line, dotted keys
/// (`topology.k=16`), doubles printed round-trip exact. The variant `*.kind`
/// line always precedes the variant's parameters.
std::string format_scenario(const ScenarioSpec& spec);

/// Parses the `key=value` text form (any order within a variant, `#`
/// comments and blank lines ignored; a `*.kind` line must precede that
/// variant's parameters). Unknown keys, malformed values and numbers outside
/// their field's range (a seed of 2^64, a fraction of 1e-400: nothing is
/// clamped) throw std::invalid_argument naming the line.
/// `parse_scenario(format_scenario(s))` round-trips every field.
ScenarioSpec parse_scenario(const std::string& text);

/// Applies one `key=value` override (the `--set` CLI form) to `spec`.
/// Setting `topology.kind` / `traffic.kind` / `arrivals.kind` switches the
/// variant (resetting it to that alternative's defaults); setting a
/// parameter of an inactive alternative throws std::invalid_argument.
void apply_scenario_setting(ScenarioSpec& spec, const std::string& key,
                            const std::string& value);

/// Simulator configuration for `spec` at injection rate `lambda` —
/// topology, pattern, arrivals and measurement knobs all forwarded, so the
/// simulator and the analytical side always agree on parameters.
sim::SimConfig to_sim_config(const ScenarioSpec& spec, double lambda);

}  // namespace kncube::core
