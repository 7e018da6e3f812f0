// The five analytical model families behind AnalyticalModel's family table
// (analytical_model.cpp), one source file each. Every solve builds the
// family's channel-class system at `lambda`, solves it from the zero-load
// state and writes the shared ModelResult; `arrival_idc` is the arrival
// process's index of dispersion (1 = Bernoulli).
// Configurations reach these only through AnalyticalModel, which validated
// them and rejected everything unsupported_reason names. Each family's
// *_class_count is the number of channel classes its builder declares, in 64
// bits so unsupported_reason can bound it before anything is built.
#pragma once

#include <cstdint>

#include "model/analytical_model.hpp"

namespace kncube::model {

// hotspot_model.cpp: the paper's hot-spot 2-D unidirectional torus.
ModelResult solve_hotspot_torus(const ModelConfig& cfg, double lambda,
                                double arrival_idc);
double hotspot_torus_zero_load_latency(const ModelConfig& cfg);
double hotspot_torus_saturation_estimate(const ModelConfig& cfg);
std::int64_t hotspot_torus_class_count(const ModelConfig& cfg);

// uniform_model.cpp: the uniform-traffic 2-D torus baseline.
ModelResult solve_uniform_torus(const ModelConfig& cfg, double lambda,
                                double arrival_idc);
double uniform_torus_zero_load_latency(const ModelConfig& cfg);
double uniform_torus_saturation_estimate(const ModelConfig& cfg);
std::int64_t uniform_torus_class_count(const ModelConfig& cfg);
/// Per-channel message rate lambda (k-1)/2 (eq 3 with h = 0).
double uniform_torus_channel_rate(int k, double lambda);

// hypercube_model.cpp: the hot-spot binary hypercube (paper ref. [12]);
// uniform traffic is its h = 0 degeneration.
ModelResult solve_hypercube(const ModelConfig& cfg, double lambda,
                            double arrival_idc);
double hypercube_zero_load_latency(const ModelConfig& cfg);
double hypercube_saturation_estimate(const ModelConfig& cfg);
std::int64_t hypercube_class_count(const ModelConfig& cfg);
/// Hot rate on a dim-d funnel channel: lambda h 2^d.
double hypercube_hot_funnel_rate(double lambda, double hot_fraction, int d);
/// P(lowest differing dimension == d) for a uniform non-equal pair of an
/// n-cube: 2^{n-1-d} / (2^n - 1).
double hypercube_first_dim_probability(int n, int d);

// mesh_model.cpp: the uniform-traffic k-ary n-mesh.
ModelResult solve_uniform_mesh(const ModelConfig& cfg, double lambda,
                               double arrival_idc);
double uniform_mesh_zero_load_latency(const ModelConfig& cfg);
double uniform_mesh_saturation_estimate(const ModelConfig& cfg);
std::int64_t uniform_mesh_class_count(const ModelConfig& cfg);

// mesh_hotspot_model.cpp: the centre-hot-spot k-ary n-mesh.
ModelResult solve_hotspot_mesh(const ModelConfig& cfg, double lambda,
                               double arrival_idc);
double hotspot_mesh_zero_load_latency(const ModelConfig& cfg);
double hotspot_mesh_saturation_estimate(const ModelConfig& cfg);
std::int64_t hotspot_mesh_class_count(const ModelConfig& cfg);

}  // namespace kncube::model
