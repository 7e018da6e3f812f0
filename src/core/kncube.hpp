// kncube — umbrella public header.
//
// Reproduction of Loucif, Ould-Khaoua & Min, "Analytical Modelling of
// Hot-Spot Traffic in Deterministically-Routed K-Ary N-Cubes" (IPDPS 2005).
//
// Layers, bottom-up:
//   * topology/  — k-ary n-cube addressing, deterministic routing, hot-spot
//                  channel geometry;
//   * sim/       — flit-level wormhole simulator with virtual channels
//                  (the paper's validation substrate);
//   * model/     — one model::ModelConfig and one model::AnalyticalModel over
//                  five families built on the shared channel-class engine:
//                  the hot-spot torus model (the contribution), the
//                  uniform-traffic baseline, the hypercube lineage model and
//                  the uniform and hot-spot k-ary n-mesh models, plus MMPP
//                  (bursty) arrivals on the torus families;
//   * core/      — the public facade. core::ScenarioSpec is the one typed
//                  scenario language (topology × traffic × arrivals plus
//                  router/measurement/ablation knobs); the model registry
//                  dispatches a spec to its analytical model (or reports it
//                  sim-only, e.g. for permutation patterns or faulty
//                  networks), and core::SweepEngine evaluates operating
//                  points for any valid spec with memoization, parallel
//                  sweeps and saturation bisection;
//   * validate/  — the statistical validation subsystem: ReplicationRunner
//                  (R-replication Student-t confidence intervals per
//                  operating point) and run_validation (model-vs-sim
//                  accuracy classification over the spec space, rendered as
//                  the committed ACCURACY.json baseline by tools/validate).
//
// Quick start (see examples/quickstart.cpp):
//
//   kncube::core::ScenarioSpec s;       // 16x16 torus, Lm=32, h=20%, V=2
//   kncube::core::SweepEngine engine(s);
//   auto pts = engine.run(engine.lambda_sweep(8));
//   std::cout << kncube::core::figure_table("demo", pts).to_string();
//
// Specs are text round-trippable — `parse_scenario` / `format_scenario`
// read and write a canonical `key=value` form (e.g. `topology.kind=torus`,
// `traffic.hot_fraction=0.2`), and `examples/kncube_run` drives any spec
// file from the command line.
#pragma once

#include "core/experiment.hpp"   // IWYU pragma: export
#include "core/model_registry.hpp"  // IWYU pragma: export
#include "core/report.hpp"       // IWYU pragma: export
#include "core/saturation.hpp"   // IWYU pragma: export
#include "core/scenario_spec.hpp"  // IWYU pragma: export
#include "core/sweep_engine.hpp" // IWYU pragma: export
#include "model/analytical_model.hpp"  // IWYU pragma: export
#include "sim/simulator.hpp"     // IWYU pragma: export
#include "topology/hotspot_geometry.hpp"  // IWYU pragma: export
#include "topology/mesh_geometry.hpp"  // IWYU pragma: export
#include "topology/torus.hpp"    // IWYU pragma: export
#include "validate/accuracy_json.hpp"  // IWYU pragma: export
#include "validate/replication.hpp"  // IWYU pragma: export
#include "validate/validation.hpp"  // IWYU pragma: export
