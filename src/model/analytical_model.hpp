// AnalyticalModel: one configuration, one result and one solve interface for
// every analytical model family in the repository. All five families are
// builders over the shared channel-class engine (engine/channel_class.hpp);
// the model picks its family from the configured topology and traffic:
//
//   topology   traffic    family              source
//   torus      hot-spot   hotspot-torus       the paper (eqs 1-37)
//   torus      uniform    uniform-torus       the h = 0 baseline
//   mesh       uniform    uniform-mesh        DESIGN.md §8
//   mesh       hot-spot   hotspot-mesh        DESIGN.md §13 (centre hot node)
//   hypercube  either     hotspot-hypercube   paper ref. [12]; uniform is h = 0
//
// Bursty (MMPP) arrivals add the engine's two-moment service stage
// (engine/bursty.hpp) to the torus families; the family name then carries an
// `mmpp-` prefix. `unsupported_reason` names every configuration no family
// covers, and the constructor throws for those rather than silently solving
// the default approximation under an ablation's name.
//
// Nothing in a family's channel-class system but its stream rates depends on
// the injection rate, so a model is *compiled* once — the system declared,
// every stream rate named by its slot in a per-λ rate table — and solved at
// any number of rates (DESIGN.md §4, §5.3). solve_at(lambda) is
// compile().solve(lambda). Every solve starts from the zero-load state, so
// its ModelResult — iteration count included — is a pure function of
// (config, lambda). `saturated == true` means the operating point has no
// steady state (the blank region past the latency asymptote).
// core/model_registry.hpp maps a core::ScenarioSpec onto a ModelConfig.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "model/engine/channel_class.hpp"  // BlockingVariant, ServiceBasis

namespace kncube::model {

enum class TopologyKind : int { kTorus = 0, kMesh = 1, kHypercube = 2 };

/// Shape of the two-state MMPP arrival chain (core::MmppArrivals mirrored
/// into the model layer, which cannot depend on core/). The arrival IDC fed
/// to the engine depends on the operating point's mean rate, so solve_at
/// recomputes it at every lambda.
struct MmppArrivalShape {
  double burst_multiplier = 4.0;
  double p_enter_burst = 0.0005;
  double p_leave_burst = 0.002;
};

/// Everything but the injection rate: AnalyticalModel::solve_at supplies it.
struct ModelConfig {
  TopologyKind topology = TopologyKind::kTorus;
  int k = 16;  ///< radix; the hypercube is the k = 2 n-cube
  int n = 2;   ///< dimensions (the hypercube's dims)
  /// h of Pfister–Norton hot-spot traffic; nullopt = uniform traffic. A
  /// hot-spot config with h = 0 still runs the hot-spot builder.
  std::optional<double> hot_fraction = 0.2;
  int vcs = 2;               ///< V virtual channels per physical channel
  int message_length = 32;   ///< Lm flits
  BlockingVariant blocking = BlockingVariant::kPaper;
  /// Basis for the busy probability Pb of eq (27).
  ServiceBasis busy_basis = ServiceBasis::kTransmission;
  /// Basis for the occupancy rho of the VC-multiplexing chain (eq 33).
  ServiceBasis vcmux_basis = ServiceBasis::kTransmission;
  /// Bursty arrivals; nullopt = Bernoulli (the paper's arrivals).
  std::optional<MmppArrivalShape> mmpp;

  void validate() const;  ///< throws std::invalid_argument when inconsistent
};

/// Why no family models `cfg` (empty when one does): torus n != 2, MMPP off
/// the torus, ablation knobs the family has no variant for, and models that
/// would declare more than engine::kMaxClasses channel classes or
/// engine::kMaxCoefficients continuation coefficients. Checked before
/// anything is compiled.
std::string unsupported_reason(const ModelConfig& cfg);

/// What a supported `cfg`'s compiled system declares, counted without
/// declaring it (in 64 bits, so oversized models can be counted too).
struct ModelSize {
  std::int64_t classes = 0;
  std::int64_t coefficients = 0;
};
ModelSize model_size(const ModelConfig& cfg);

/// One solved operating point. Disk-store records and wire blobs are this
/// struct's raw bytes: keep its fields and layout.
struct ModelResult {
  /// Mean message latency in cycles (eq 10); +inf when saturated.
  double latency = std::numeric_limits<double>::infinity();
  bool saturated = true;
  bool converged = false;
  /// Fixed-point sweeps to tolerance: 2-3 on constant-blocking systems (the
  /// transmission basis and pure wait), tens of damped sweeps on the
  /// inclusive basis. Every solve starts from the zero-load state, so it is
  /// as deterministic as the answer fields.
  int iterations = 0;

  // Decomposition (finite only when !saturated):
  double regular_latency = 0.0;      ///< S_r of eq (11), scaled
  double hot_latency = 0.0;          ///< S_h of eq (21), scaled
  double regular_network_latency = 0.0;  ///< S_r^net of eq (31), unscaled
  double source_wait_regular = 0.0;      ///< Ws_r of eq (32)

  // Virtual-channel multiplexing degrees (eqs 35-37):
  double vc_mux_x = 1.0;         ///< average over all x channels
  double vc_mux_hot_y = 1.0;     ///< average over hot-y-ring channels
  double vc_mux_nonhot_y = 1.0;  ///< non-hot y channels

  /// Maximum channel utilisation Pb over all channel classes; the hot-y-ring
  /// channel adjacent to the hot node in all non-degenerate cases.
  double max_channel_utilization = 0.0;
};

/// One configuration's model with everything but the injection rate
/// declared: the family's channel-class system and the geometry its
/// assembly reads. solve() fills the per-λ rate table with the family's
/// traffic-rate arithmetic, sets the arrival IDC, iterates and assembles. It
/// is const and writes only the calling thread's engine::ThreadWorkspace, so
/// one compiled model may be solved from many threads at once. A
/// core::SweepEngine keeps one for a single call (DESIGN.md §5.3).
class CompiledModel {
 public:
  virtual ~CompiledModel() = default;
  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  /// Solves at injection rate `lambda` (throws std::invalid_argument
  /// outside [0, 1]); bit-identical to AnalyticalModel::solve_at(lambda).
  ModelResult solve(double lambda) const;

  /// The declared system; its sizes are model_size() of the configuration.
  const engine::ChannelClassSystem& system() const noexcept { return system_; }

 protected:
  CompiledModel(const ModelConfig& cfg, engine::ChannelClassSystem system);

  const engine::ChannelClassSystem system_;

 private:
  /// The family's solve at `lambda` under the arrival index of dispersion
  /// `arrival_idc` (1 = Bernoulli).
  virtual ModelResult evaluate(double lambda, double arrival_idc) const = 0;

  std::optional<MmppArrivalShape> mmpp_;
};

struct ModelFamily;  // one row of the family table (analytical_model.cpp)

class AnalyticalModel {
 public:
  /// Throws std::invalid_argument when `cfg` is inconsistent or names
  /// anything unsupported_reason reports.
  explicit AnalyticalModel(ModelConfig cfg);

  /// Family name ("hotspot-torus", "uniform-mesh", "mmpp-uniform-torus", ...).
  const char* name() const noexcept { return name_.c_str(); }
  const ModelConfig& config() const noexcept { return cfg_; }

  /// Declares this configuration's channel-class system; the result solves
  /// it at any rate.
  std::unique_ptr<const CompiledModel> compile() const;

  /// Solves the model at injection rate `lambda` (throws
  /// std::invalid_argument outside [0, 1]): compile(), then one solve.
  ModelResult solve_at(double lambda) const;

  /// Exact zero-load latency (the lambda -> 0 limit of solve_at().latency).
  double zero_load_latency() const;

  /// Coarse closed-form bottleneck estimate of the saturation rate, used to
  /// seed bisection searches. Burstiness does not move it: the stability
  /// pole is a bandwidth property.
  double estimated_saturation_rate() const;

 private:
  ModelConfig cfg_;
  const ModelFamily* family_;
  std::string name_;
};

}  // namespace kncube::model
