// ChannelClassSystem::solve iteration behaviour.
//
// With state-independent blocking (the transmission basis and the pure-wait
// ablation) the system is solved by undamped sweeps, which reach the exact
// fixed point in a fixed number of sweeps set by the depth of the map's
// cross-sweep reads: three on the tori, whose x-then-y classes read the
// previous sweep's y-ring entrance averages, and two on the mesh and
// hypercube maps, whose sweep reads nothing from its input. A map whose
// undamped sweep does not settle falls back to the damped iteration. The
// inclusive basis keeps the damped iteration; its counts are pinned here.
// Declaring a continuation that would break the sweep's order aborts.
#include <gtest/gtest.h>

#include <vector>

#include "core/model_registry.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep_engine.hpp"
#include "model/engine/channel_class.hpp"

namespace kncube::model {
namespace {

using core::ScenarioSpec;

ScenarioSpec hotspot_torus(int k) {
  ScenarioSpec s;
  s.topology = core::TorusTopology{k, 2, false};
  s.traffic = core::HotspotTraffic{0.2, -1};
  return s;
}
ScenarioSpec uniform_torus(int k) {
  ScenarioSpec s = hotspot_torus(k);
  s.traffic = core::UniformTraffic{};
  return s;
}
ScenarioSpec mesh(int k, int n, bool hot) {
  ScenarioSpec s;
  s.topology = core::MeshTopology{k, n};
  if (!hot) s.traffic = core::UniformTraffic{};
  return s;
}
ScenarioSpec hypercube(int dims, bool hot) {
  ScenarioSpec s;
  s.topology = core::HypercubeTopology{dims};
  if (!hot) s.traffic = core::UniformTraffic{};
  return s;
}
ScenarioSpec mmpp(ScenarioSpec s) {
  s.arrivals = core::MmppArrivals{};
  return s;
}
ScenarioSpec pure_wait(ScenarioSpec s) {
  s.blocking = BlockingVariant::kPureWait;
  return s;
}
ScenarioSpec inclusive(ScenarioSpec s) {
  s.busy_basis = ServiceBasis::kInclusive;
  return s;
}

TEST(ChannelClassSolve, ConstantBlockingTakesTheMapsDepth) {
  struct Case {
    const char* name;
    ScenarioSpec spec;
    int sweeps;
  };
  const Case cases[] = {
      {"hotspot torus k=8", hotspot_torus(8), 3},
      {"hotspot torus k=16", hotspot_torus(16), 3},
      {"hotspot torus k=16 pure wait", pure_wait(hotspot_torus(16)), 3},
      {"uniform torus k=16", uniform_torus(16), 3},
      {"mmpp hotspot torus k=8", mmpp(hotspot_torus(8)), 3},
      {"mmpp uniform torus k=8", mmpp(uniform_torus(8)), 3},
      {"uniform mesh k=8", mesh(8, 2, false), 2},
      {"uniform mesh k=4 n=3 pure wait", pure_wait(mesh(4, 3, false)), 2},
      {"hotspot mesh k=9", mesh(9, 2, true), 2},
      {"hotspot mesh k=8 pure wait", pure_wait(mesh(8, 2, true)), 2},
      {"hotspot hypercube dims=6", hypercube(6, true), 2},
      {"uniform hypercube dims=5", hypercube(5, false), 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const core::ModelDispatch d = core::make_analytical_model(c.spec);
    ASSERT_TRUE(d.has_model());
    const double sat = core::SweepEngine(c.spec).saturation_rate().rate;
    for (const double f : {0.05, 0.4, 0.8, 0.99}) {
      const ModelResult r = d.model->solve_at(f * sat);
      ASSERT_FALSE(r.saturated) << f;
      EXPECT_EQ(r.iterations, c.sweeps) << "at " << f;
    }
  }
}

TEST(ChannelClassSolve, UndampedCycleFallsBackToTheDampedIteration) {
  // s0 = 2 - s1_in and s1 = 2 - s0_in: no blocking, so nothing depends on
  // the state but the continuations, yet the undamped sweep alternates
  // between (0, 0) and (2, 2) forever. The damped fallback lands on (1, 1).
  engine::ChannelClassSystem sys(2, 0, engine::EngineOptions{});
  const engine::Coef minus_s1[] = {{1, -1.0}};
  const engine::Coef minus_s0[] = {{0, -1.0}};
  sys.set_class(0, {-1, 0.0, sys.linear(1.0, minus_s1), {}});
  sys.set_class(1, {-1, 0.0, sys.linear(1.0, minus_s0), {}});

  engine::Workspace ws;
  const FixedPointResult fp = sys.solve(ws);
  EXPECT_TRUE(fp.converged);
  EXPECT_FALSE(fp.diverged);
  EXPECT_EQ(ws.state, (std::vector<double>{1.0, 1.0}));
}

TEST(ChannelClassSolve, InclusiveBasisKeepsTheDampedIterationCounts) {
  // Solves at 0.2, 0.6 and 0.9 of saturation, recorded before the undamped
  // path existed.
  struct Case {
    const char* name;
    ScenarioSpec spec;
    std::vector<int> iterations;
  };
  const Case cases[] = {
      {"hotspot torus k=8", inclusive(hotspot_torus(8)), {35, 42, 43}},
      {"hotspot torus k=16", inclusive(hotspot_torus(16)), {38, 40, 43}},
      {"mmpp hotspot torus k=8", inclusive(mmpp(hotspot_torus(8))), {37, 48, 58}},
      {"uniform mesh k=8", inclusive(mesh(8, 2, false)), {31, 50, 41}},
      {"hotspot mesh k=9", inclusive(mesh(9, 2, true)), {30, 57, 38}},
      {"hotspot hypercube dims=6", inclusive(hypercube(6, true)), {29, 38, 35}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const core::ModelDispatch d = core::make_analytical_model(c.spec);
    ASSERT_TRUE(d.has_model());
    const double sat = core::SweepEngine(c.spec).saturation_rate().rate;
    std::vector<int> got;
    for (const double f : {0.2, 0.6, 0.9}) got.push_back(d.model->solve_at(f * sat).iterations);
    EXPECT_EQ(got, c.iterations);
  }
}

// Slots are evaluated in index order, so a within-sweep (output)
// continuation may read only lower slots: anything else would read the
// previous sweep's raw scratch. Declaring one aborts.
TEST(ChannelClassSystemDeathTest, WithinSweepContinuationMustReadAnEarlierSlot) {
  const auto declare_slot_1_reading = [](int ref) {
    engine::ChannelClassSystem sys(3, 0, engine::EngineOptions{});
    sys.set_class(1, {-1, 0.0, {}, sys.slot(ref)});
  };
  declare_slot_1_reading(0);  // an earlier slot is fine
  const char* message = "within-sweep continuation must read an earlier slot";
  EXPECT_DEATH(declare_slot_1_reading(1), message);   // its own slot
  EXPECT_DEATH(declare_slot_1_reading(2), message);   // a later slot
  EXPECT_DEATH(declare_slot_1_reading(3), message);   // past the last slot
  EXPECT_DEATH(declare_slot_1_reading(-1), message);  // below the first slot
}

}  // namespace
}  // namespace kncube::model
