// Heap allocations of a model solve.
//
// ChannelClassSystem takes its arrays, and every solve its workspace (rate
// table, state, assembly vectors, per-sweep values), from storage each thread
// keeps between solves, and the VC-occupancy chain stores nothing. Once a
// thread has solved a model, solving a compiled model no larger allocates
// nothing, and a whole AnalyticalModel::solve_at (compile, then solve)
// allocates the same fixed handful of blocks whatever the radix. Models too
// large to bound that storage are turned away before anything is compiled.
//
// This binary replaces the global operator new to count the allocations of
// the calling thread, which is why it is a test binary of its own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model_registry.hpp"
#include "core/scenario_spec.hpp"
#include "model/analytical_model.hpp"
#include "model/engine/channel_class.hpp"

namespace {

thread_local std::size_t t_allocations = 0;
thread_local std::size_t t_bytes = 0;

void* counted_malloc(std::size_t size) {
  ++t_allocations;
  t_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form, so each block is malloc'd and free'd in pairs.
void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kncube::model {
namespace {

struct Allocations {
  std::size_t count = 0;
  std::size_t bytes = 0;
};

/// What `body` allocates on the calling thread.
template <class Body>
Allocations allocations_of(Body&& body) {
  const std::size_t count = t_allocations;
  const std::size_t bytes = t_bytes;
  body();
  return {t_allocations - count, t_bytes - bytes};
}

ModelConfig hotspot_torus(int k) {
  ModelConfig cfg;  // a 2-D torus, h = 0.2, V = 2, Lm = 32
  cfg.k = k;
  return cfg;
}

TEST(ModelAllocations, SolveCountDoesNotGrowWithTheRadix) {
  const AnalyticalModel small(hotspot_torus(8));
  const AnalyticalModel large(hotspot_torus(32));
  // A stable point and a saturated probe of each.
  for (const double f : {0.5, 3.0}) {
    SCOPED_TRACE(f);
    const double lambda_small = f * small.estimated_saturation_rate();
    const double lambda_large = f * large.estimated_saturation_rate();
    Allocations warm_up, at_8, at_32;
    // A fresh thread: its storage grows once, on the warm-up solve.
    std::thread([&] {
      warm_up = allocations_of([&] { large.solve_at(lambda_large); });
      at_8 = allocations_of([&] { small.solve_at(lambda_small); });
      at_32 = allocations_of([&] { large.solve_at(lambda_large); });
    }).join();
    EXPECT_EQ(at_8.count, at_32.count)
        << "k = 8: " << at_8.count << " allocations, k = 32: " << at_32.count;
    EXPECT_LT(at_32.count, warm_up.count);
  }
}

ModelConfig mmpp(ModelConfig cfg) {
  cfg.mmpp = MmppArrivalShape{};
  return cfg;
}
ModelConfig uniform(ModelConfig cfg) {
  cfg.hot_fraction = std::nullopt;
  return cfg;
}
ModelConfig mesh(int k, int n, bool hot) {
  ModelConfig cfg;
  cfg.topology = TopologyKind::kMesh;
  cfg.k = k;
  cfg.n = n;
  return hot ? cfg : uniform(cfg);
}
ModelConfig hypercube(int dims) {
  ModelConfig cfg;
  cfg.topology = TopologyKind::kHypercube;
  cfg.k = 2;
  cfg.n = dims;
  return cfg;
}

TEST(ModelAllocations, WarmCompiledSolveAllocatesNothing) {
  // The rate table, the state, the assembly's vectors and the engine's
  // per-sweep values all live in the solving thread's workspace.
  const struct {
    const char* name;
    ModelConfig cfg;
  } cases[] = {
      {"hotspot torus k=8", hotspot_torus(8)},
      {"hotspot torus k=32", hotspot_torus(32)},
      {"uniform torus k=16", uniform(hotspot_torus(16))},
      {"mmpp hotspot torus k=8", mmpp(hotspot_torus(8))},
      {"uniform mesh k=8 n=3", mesh(8, 3, false)},
      {"hotspot mesh k=9", mesh(9, 2, true)},
      {"hotspot hypercube dims=6", hypercube(6)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const AnalyticalModel model(c.cfg);
    const std::unique_ptr<const CompiledModel> compiled = model.compile();
    // A stable point and a saturated probe.
    for (const double f : {0.5, 3.0}) {
      SCOPED_TRACE(f);
      const double lambda = f * model.estimated_saturation_rate();
      ModelResult r;
      Allocations warm_up, warm;
      std::thread([&] {
        warm_up = allocations_of([&] { compiled->solve(lambda); });
        warm = allocations_of([&] { r = compiled->solve(lambda); });
      }).join();
      EXPECT_GT(warm_up.count, 0u);
      EXPECT_EQ(warm.count, 0u) << warm.bytes << " bytes";
      EXPECT_EQ(r.saturated, f > 1.0);
    }
  }
}

/// A chain of `slots` hops, each blocking on its own channel: a regular
/// stream that reads the chain's mean service time and a hot stream that
/// reads the hop's own, so on the inclusive basis every kind of declaration
/// is exercised (reads, terms, mixtures, coefficients) and the damped
/// iteration and its polish run.
/// Its regular streams read rate slot 0 and its hot streams slot 1.
engine::ChannelClassSystem chain_system(int slots, ServiceBasis basis) {
  engine::EngineOptions opts;
  opts.service_floor = 16.0;
  opts.busy_basis = basis;
  engine::ChannelClassSystem sys(slots, 2, opts);
  const int mean_read = sys.add_read(0, slots);
  for (int i = 0; i < slots; ++i) {
    sys.add_term({0, 24.0, mean_read},
                 {1, 16.0 + static_cast<double>(i), sys.add_read(i, 1)});
  }
  const int chain_mean = sys.add_term_mean(0, slots);
  for (int i = 0; i < slots; ++i) {
    const int blocking = i == 0 ? chain_mean : sys.add_mixture({{i, 0.5}, {0, 0.5}});
    engine::ChannelClass c{blocking, 16.0 + static_cast<double>(i), engine::Linear{15.0}, {}};
    if (i > 0) c.output = sys.slot(i - 1);
    sys.set_class(i, c);
  }
  return sys;
}

TEST(ModelAllocations, WarmSystemBuildAndSolveAllocateNothing) {
  for (const ServiceBasis basis : {ServiceBasis::kTransmission, ServiceBasis::kInclusive}) {
    SCOPED_TRACE(static_cast<int>(basis));
    Allocations warm_up, same, smaller;
    bool converged = true;
    std::thread([&] {
      const auto build_and_solve = [&](int slots) {
        const engine::ChannelClassSystem sys = chain_system(slots, basis);
        engine::ThreadWorkspace ws;
        ws->rates = {1e-4, 2e-5};
        converged = converged && sys.solve(*ws).converged;
      };
      warm_up = allocations_of([&] { build_and_solve(64); });
      same = allocations_of([&] { build_and_solve(64); });
      smaller = allocations_of([&] { build_and_solve(40); });
    }).join();
    EXPECT_TRUE(converged);
    EXPECT_GT(warm_up.count, 0u);
    EXPECT_EQ(same.count, 0u);
    EXPECT_EQ(smaller.count, 0u);
  }
}

TEST(ModelAllocations, OversizedModelIsSimOnlyWithoutBeingBuilt) {
  // The largest addressable 2-D torus (k^2 = 2^28 nodes): its hot-spot model
  // would declare (k - 1)(k + 6) channel classes, several GB of arrays.
  core::ScenarioSpec spec;
  spec.topology = core::TorusTopology{16384, 2, false};
  spec.traffic = core::HotspotTraffic{0.2, -1};
  core::ModelDispatch dispatch;
  const Allocations dispatched =
      allocations_of([&] { dispatch = core::make_analytical_model(spec); });
  EXPECT_FALSE(dispatch.has_model());
  const std::int64_t classes = std::int64_t{16383} * (16384 + 6);
  EXPECT_NE(dispatch.sim_only_reason.find(std::to_string(classes)), std::string::npos)
      << dispatch.sim_only_reason;
  EXPECT_NE(dispatch.sim_only_reason.find(std::to_string(engine::kMaxClasses)),
            std::string::npos)
      << dispatch.sim_only_reason;
  EXPECT_LT(dispatched.bytes, std::size_t{1} << 20);

  // A 2-D hot-spot mesh of the same size has 4(k - 1) = 65,532 classes,
  // inside the class bound, but each regular class's continuation inlines
  // the next dimension's entrance average: (k - 1)^2 + 2(k - 2) regular and
  // (k - 1) + 2(k - 3) hot-chain coefficients, several GB.
  spec.topology = core::MeshTopology{16384, 2};
  const Allocations mesh_dispatched =
      allocations_of([&] { dispatch = core::make_analytical_model(spec); });
  EXPECT_FALSE(dispatch.has_model());
  const std::int64_t coefficients = std::int64_t{16383} * 16383 + 2 * 16382 + 16383 + 2 * 16381;
  EXPECT_NE(dispatch.sim_only_reason.find(std::to_string(coefficients)),
            std::string::npos)
      << dispatch.sim_only_reason;
  EXPECT_NE(dispatch.sim_only_reason.find(std::to_string(engine::kMaxCoefficients)),
            std::string::npos)
      << dispatch.sim_only_reason;
  EXPECT_LT(mesh_dispatched.bytes, std::size_t{1} << 20);
  spec.topology = core::TorusTopology{16384, 2, false};

  // The bound admits the hot-spot torus up to k = 253, (252)(259) classes,
  // and that model builds and solves.
  spec.torus().k = 254;
  EXPECT_FALSE(core::make_analytical_model(spec).has_model());
  spec.torus().k = 253;
  const core::ModelDispatch largest = core::make_analytical_model(spec);
  ASSERT_TRUE(largest.has_model());
  ModelResult r;
  // On its own thread, so the storage it grows is released with it.
  std::thread([&] { r = largest.model->solve_at(1e-7); }).join();
  EXPECT_FALSE(r.saturated);
}

}  // namespace
}  // namespace kncube::model
