// The five analytical model families behind AnalyticalModel's family table
// (analytical_model.cpp), one source file each. Each family's compile_*
// declares its channel-class system once and returns a CompiledModel whose
// solve fills the family's per-λ rate table, solves from the zero-load
// state and writes the shared ModelResult.
// Configurations reach these only through AnalyticalModel, which validated
// them and rejected everything unsupported_reason names. Each family's *_size
// counts the channel classes and continuation coefficients its compile
// declares, in 64 bits so unsupported_reason can bound them before anything
// is compiled.
#pragma once

#include <memory>

#include "model/analytical_model.hpp"

namespace kncube::model {

// hotspot_model.cpp: the paper's hot-spot 2-D unidirectional torus.
std::unique_ptr<const CompiledModel> compile_hotspot_torus(const ModelConfig& cfg);
double hotspot_torus_zero_load_latency(const ModelConfig& cfg);
double hotspot_torus_saturation_estimate(const ModelConfig& cfg);
ModelSize hotspot_torus_size(const ModelConfig& cfg);

// uniform_model.cpp: the uniform-traffic 2-D torus baseline.
std::unique_ptr<const CompiledModel> compile_uniform_torus(const ModelConfig& cfg);
double uniform_torus_zero_load_latency(const ModelConfig& cfg);
double uniform_torus_saturation_estimate(const ModelConfig& cfg);
ModelSize uniform_torus_size(const ModelConfig& cfg);
/// Per-channel message rate lambda (k-1)/2 (eq 3 with h = 0).
double uniform_torus_channel_rate(int k, double lambda);

// hypercube_model.cpp: the hot-spot binary hypercube (paper ref. [12]);
// uniform traffic is its h = 0 degeneration.
std::unique_ptr<const CompiledModel> compile_hypercube(const ModelConfig& cfg);
double hypercube_zero_load_latency(const ModelConfig& cfg);
double hypercube_saturation_estimate(const ModelConfig& cfg);
ModelSize hypercube_size(const ModelConfig& cfg);
/// Hot rate on a dim-d funnel channel: lambda h 2^d.
double hypercube_hot_funnel_rate(double lambda, double hot_fraction, int d);
/// P(lowest differing dimension == d) for a uniform non-equal pair of an
/// n-cube: 2^{n-1-d} / (2^n - 1).
double hypercube_first_dim_probability(int n, int d);

// mesh_model.cpp: the uniform-traffic k-ary n-mesh.
std::unique_ptr<const CompiledModel> compile_uniform_mesh(const ModelConfig& cfg);
double uniform_mesh_zero_load_latency(const ModelConfig& cfg);
double uniform_mesh_saturation_estimate(const ModelConfig& cfg);
ModelSize uniform_mesh_size(const ModelConfig& cfg);

// mesh_hotspot_model.cpp: the centre-hot-spot k-ary n-mesh.
std::unique_ptr<const CompiledModel> compile_hotspot_mesh(const ModelConfig& cfg);
double hotspot_mesh_zero_load_latency(const ModelConfig& cfg);
double hotspot_mesh_saturation_estimate(const ModelConfig& cfg);
ModelSize hotspot_mesh_size(const ModelConfig& cfg);

}  // namespace kncube::model
