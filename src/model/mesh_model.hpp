// Uniform-traffic analytical model for the deterministically-routed k-ary
// n-mesh, built on the shared channel-class engine.
//
// Removing the torus's wrap-around links breaks vertex-transitivity: under
// dimension-order routing the load of a line's + link at position i is
// proportional to (i+1)(k-1-i) — peaking at the line's centre (the bisection
// links) — so the paper's "all channels of a dimension alike" classes no
// longer exist. The mesh model instead declares one channel class per
// (dimension, position): n(k-1) classes (the - direction folds onto the +
// classes by mirror symmetry, and the per-position rates are the same in
// every dimension), each with its own blocking group fed by the exact
// path-counting rates of src/topology/mesh_geometry.hpp, coupled through the
// same S = B + 1 + continuation recursion as the paper's eqs (16)-(25) and
// closed by the same warm-started fixed point. DESIGN.md §8 derives
// the per-class rate and continuation equations and maps each to its paper
// counterpart.
#pragma once

#include <limits>
#include <vector>

#include "model/engine/channel_class.hpp"  // BlockingVariant, ServiceBasis
#include "model/solver.hpp"

namespace kncube::model {

struct MeshModelConfig {
  int k = 8;                     ///< radix
  int n = 2;                     ///< dimensions
  int vcs = 2;                   ///< V virtual channels per physical channel
  int message_length = 32;       ///< Lm flits
  double injection_rate = 1e-4;  ///< lambda, messages/node/cycle
  BlockingVariant blocking = BlockingVariant::kPaper;
  ServiceBasis busy_basis = ServiceBasis::kTransmission;
  ServiceBasis vcmux_basis = ServiceBasis::kTransmission;
  FixedPointOptions solver{};

  void validate() const;  ///< throws std::invalid_argument when inconsistent
};

struct MeshModelResult {
  double latency = std::numeric_limits<double>::infinity();
  bool saturated = true;
  bool converged = false;
  int iterations = 0;

  double network_latency = 0.0;  ///< unscaled mean network latency
  double source_wait = 0.0;
  /// Entrance-weighted VC multiplexing degrees of the first and last
  /// dimensions (dimension 0 carries the longest continuations, the last
  /// dimension drains into the destination).
  double vc_mux_first_dim = 1.0;
  double vc_mux_last_dim = 1.0;
  /// Utilisation of the most loaded channel class — a centre (bisection)
  /// link of dimension 0 in all non-degenerate cases.
  double max_channel_utilization = 0.0;
};

class MeshUniformModel {
 public:
  explicit MeshUniformModel(const MeshModelConfig& cfg);

  MeshModelResult solve() const { return solve(nullptr, nullptr); }
  /// Continuation solve: `warm_start` seeds the iteration with a nearby
  /// converged state (cold fallback on failure, bit-identical on success);
  /// `converged_state` receives the converged iterate for chaining. Either
  /// may be null. See HotspotModel::solve for the contract.
  MeshModelResult solve(const std::vector<double>* warm_start,
                        std::vector<double>* converged_state) const;

  const MeshModelConfig& config() const noexcept { return cfg_; }

  /// Exact zero-load latency: E[Manhattan distance | dst != src] + Lm - 1,
  /// the lambda -> 0 limit of solve().latency.
  double zero_load_latency() const;

  /// Message rate crossing the + link at position i of any dimension
  /// (topology/mesh_geometry.hpp path counting).
  double channel_rate(int i) const noexcept;

  /// Coarse closed-form saturation estimate from the bandwidth pole of the
  /// dimension-0 centre (bisection) link: lambda_sat ~ 1/(coef * tx), used
  /// to seed bisection searches.
  double estimated_saturation_rate() const;

 private:
  MeshModelConfig cfg_;
};

}  // namespace kncube::model
