#include "model/analytical_model.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "model/engine/bursty.hpp"
#include "model/families.hpp"
#include "topology/torus.hpp"  // topo::kMaxDims

namespace kncube::model {

struct ModelFamily {
  const char* name;
  std::unique_ptr<const CompiledModel> (*compile)(const ModelConfig& cfg);
  double (*zero_load_latency)(const ModelConfig& cfg);
  double (*estimated_saturation_rate)(const ModelConfig& cfg);
  ModelSize (*size)(const ModelConfig& cfg);
};

namespace {

const ModelFamily kHotspotTorus{"hotspot-torus", compile_hotspot_torus,
                                hotspot_torus_zero_load_latency,
                                hotspot_torus_saturation_estimate, hotspot_torus_size};
const ModelFamily kUniformTorus{"uniform-torus", compile_uniform_torus,
                                uniform_torus_zero_load_latency,
                                uniform_torus_saturation_estimate, uniform_torus_size};
const ModelFamily kHypercube{"hotspot-hypercube", compile_hypercube,
                             hypercube_zero_load_latency,
                             hypercube_saturation_estimate, hypercube_size};
const ModelFamily kUniformMesh{"uniform-mesh", compile_uniform_mesh,
                               uniform_mesh_zero_load_latency,
                               uniform_mesh_saturation_estimate, uniform_mesh_size};
const ModelFamily kHotspotMesh{"hotspot-mesh", compile_hotspot_mesh,
                               hotspot_mesh_zero_load_latency,
                               hotspot_mesh_saturation_estimate, hotspot_mesh_size};

const ModelFamily& family_of(const ModelConfig& cfg) {
  const bool hot = cfg.hot_fraction.has_value();
  switch (cfg.topology) {
    case TopologyKind::kTorus: return hot ? kHotspotTorus : kUniformTorus;
    case TopologyKind::kMesh: return hot ? kHotspotMesh : kUniformMesh;
    case TopologyKind::kHypercube: break;
  }
  return kHypercube;
}

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("ModelConfig: " + msg);
}

void check_rate(double lambda) {
  if (!(lambda >= 0.0 && lambda <= 1.0)) {
    throw std::invalid_argument("AnalyticalModel: injection rate must be in [0,1]");
  }
}

}  // namespace

void ModelConfig::validate() const {
  if (k < 2) fail("radix k must be >= 2");
  if (topology == TopologyKind::kHypercube && k != 2) {
    fail("the hypercube is the k = 2 n-cube");
  }
  if (n < 1 || n > topo::kMaxDims) fail("dimension count n out of range");
  if (vcs < 1) fail("need at least one virtual channel");
  if (message_length < 1) fail("message length must be >= 1");
  if (hot_fraction && !(*hot_fraction >= 0.0 && *hot_fraction <= 1.0)) {
    fail("hot fraction must be in [0,1]");
  }
  if (mmpp) {
    if (!(mmpp->p_enter_burst > 0.0 && mmpp->p_enter_burst <= 1.0 &&
          mmpp->p_leave_burst > 0.0 && mmpp->p_leave_burst <= 1.0)) {
      fail("MMPP transition probabilities must be in (0,1]");
    }
    if (!(std::isfinite(mmpp->burst_multiplier) && mmpp->burst_multiplier >= 1.0)) {
      fail("MMPP burst multiplier must be finite and >= 1");
    }
  }
}

std::string unsupported_reason(const ModelConfig& cfg) {
  const bool default_bases = cfg.busy_basis == ServiceBasis::kTransmission &&
                             cfg.vcmux_basis == ServiceBasis::kTransmission;
  switch (cfg.topology) {
    case TopologyKind::kTorus:
      if (cfg.n != 2) return "analytical torus models are 2-D (n == 2)";
      if (!cfg.hot_fraction &&
          (cfg.blocking != BlockingVariant::kPaper || !default_bases)) {
        return "uniform-torus model has no blocking/basis ablation variants";
      }
      break;
    case TopologyKind::kMesh:
    case TopologyKind::kHypercube:
      // The bursty service stage is threaded through the torus builders
      // only; the mesh and hypercube builders assume Bernoulli arrivals.
      if (cfg.mmpp) {
        return "bursty-arrival model covers the torus families only (mesh and "
               "hypercube models assume Bernoulli arrivals)";
      }
      if (cfg.topology == TopologyKind::kHypercube &&
          cfg.blocking != BlockingVariant::kPaper) {
        return "hypercube model has no blocking-form ablation variant";
      }
      break;
  }
  // Every per-solve array, and the storage a thread keeps between solves,
  // scales with the class and coefficient counts (DESIGN.md §4): bound both
  // before compiling.
  const ModelSize size = family_of(cfg).size(cfg);
  const auto over = [](std::int64_t count, const char* what, int bound) {
    return "analytical model would declare " + std::to_string(count) + " " + what +
           ", above the bound of " + std::to_string(bound);
  };
  if (size.classes > engine::kMaxClasses) {
    return over(size.classes, "channel classes", engine::kMaxClasses);
  }
  if (size.coefficients > engine::kMaxCoefficients) {
    return over(size.coefficients, "continuation coefficients",
                engine::kMaxCoefficients);
  }
  return {};
}

ModelSize model_size(const ModelConfig& cfg) { return family_of(cfg).size(cfg); }

CompiledModel::CompiledModel(const ModelConfig& cfg, engine::ChannelClassSystem system)
    : system_(std::move(system)), mmpp_(cfg.mmpp) {}

ModelResult CompiledModel::solve(double lambda) const {
  check_rate(lambda);
  // The IDC depends on the operating point's mean rate; burst_multiplier == 1
  // makes it exactly 1, so such solves are bitwise the Bernoulli ones.
  const double idc = mmpp_ ? mmpp_arrival_idc(lambda, mmpp_->burst_multiplier,
                                              mmpp_->p_enter_burst, mmpp_->p_leave_burst)
                           : 1.0;
  return evaluate(lambda, idc);
}

AnalyticalModel::AnalyticalModel(ModelConfig cfg)
    : cfg_(std::move(cfg)), family_(&family_of(cfg_)) {
  cfg_.validate();
  if (std::string reason = unsupported_reason(cfg_); !reason.empty()) {
    throw std::invalid_argument("AnalyticalModel: " + reason);
  }
  name_ = cfg_.mmpp ? std::string("mmpp-") + family_->name : family_->name;
}

std::unique_ptr<const CompiledModel> AnalyticalModel::compile() const {
  return family_->compile(cfg_);
}

ModelResult AnalyticalModel::solve_at(double lambda) const {
  check_rate(lambda);  // before compiling anything
  return compile()->solve(lambda);
}

double AnalyticalModel::zero_load_latency() const {
  return family_->zero_load_latency(cfg_);
}

double AnalyticalModel::estimated_saturation_rate() const {
  return family_->estimated_saturation_rate(cfg_);
}

}  // namespace kncube::model
