#include "model/engine/channel_class.hpp"

#include <algorithm>
#include <bit>

#include "model/engine/mg1.hpp"
#include "util/assert.hpp"

namespace kncube::model::engine {

std::size_t ChannelClassSystem::ExprHash::operator()(
    const StateExpr& e) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(std::bit_cast<std::uint64_t>(e.constant));
  mix(std::bit_cast<std::uint64_t>(e.divisor));
  e.for_each_term([&](int slot, double weight) {
    mix(static_cast<std::uint64_t>(slot));
    mix(std::bit_cast<std::uint64_t>(weight));
  });
  return static_cast<std::size_t>(h);
}

double StateExpr::eval(const std::vector<double>& s) const {
  if (!spill_) {
    if (inline_slot_ < 0) return constant;  // divisor is 1 for these forms
    return constant +
           inline_weight_ * s[static_cast<std::size_t>(inline_slot_)] / divisor;
  }
  double acc = 0.0;
  for (const auto& [slot, weight] : *spill_) {
    acc += weight * s[static_cast<std::size_t>(slot)];
  }
  return constant + acc / divisor;
}

bool StateExpr::operator==(const StateExpr& o) const {
  if (constant != o.constant || divisor != o.divisor ||
      term_count() != o.term_count()) {
    return false;
  }
  if (!spill_ && !o.spill_) {
    return inline_slot_ == o.inline_slot_ &&
           (inline_slot_ < 0 || inline_weight_ == o.inline_weight_);
  }
  if (spill_ && o.spill_) return spill_ == o.spill_ || *spill_ == *o.spill_;
  // One inline, one single-term spill: compare the lone terms.
  bool equal = false;
  for_each_term([&](int slot, double weight) {
    o.for_each_term([&](int oslot, double oweight) {
      equal = slot == oslot && weight == oweight;
    });
  });
  return equal;
}

StateExpr StateExpr::constant_of(double c) {
  StateExpr e;
  e.constant = c;
  return e;
}

StateExpr StateExpr::slot(int index, double weight) {
  KNC_ASSERT(index >= 0);
  StateExpr e;
  e.inline_slot_ = index;
  e.inline_weight_ = weight;
  return e;
}

StateExpr StateExpr::average(int first, int count) {
  KNC_ASSERT(count > 0);
  if (count == 1) {
    StateExpr e = slot(first);
    return e;
  }
  Terms terms;
  terms.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) terms.emplace_back(first + i, 1.0);
  return weighted(0.0, static_cast<double>(count), std::move(terms));
}

StateExpr StateExpr::weighted(double constant, double divisor,
                              std::vector<std::pair<int, double>> terms) {
  StateExpr e;
  e.constant = constant;
  e.divisor = divisor;
  if (terms.size() == 1) {
    e.inline_slot_ = terms.front().first;
    e.inline_weight_ = terms.front().second;
  } else if (!terms.empty()) {
    e.spill_ = std::make_shared<const Terms>(std::move(terms));
  }
  return e;
}

ChannelClassSystem::ChannelClassSystem(int slots, EngineOptions options)
    : options_(options),
      // Blocking reads the iterated state only through Pb on the inclusive
      // basis (eq 27); on the transmission basis (and for the pure-wait
      // ablation) every blocking input is a constant of the system.
      blocking_state_dependent_(options.blocking == BlockingVariant::kPaper &&
                                options.busy_basis == ServiceBasis::kInclusive),
      classes_(static_cast<std::size_t>(slots)) {
  KNC_ASSERT(slots > 0);
  eval_order_.resize(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) eval_order_[static_cast<std::size_t>(i)] = i;
}

void ChannelClassSystem::set_class(int slot, ChannelClass cls) {
  classes_[static_cast<std::size_t>(slot)] = std::move(cls);
}

int ChannelClassSystem::intern(const StateExpr& expr) {
  const auto [it, inserted] =
      expr_index_.try_emplace(expr, static_cast<int>(expr_pool_.size()));
  if (inserted) expr_pool_.push_back(expr);
  return it->second;
}

ChannelClassSystem::CompiledStream ChannelClassSystem::compile(
    const StreamSpec& spec) {
  CompiledStream out;
  out.rate = spec.rate;
  out.tx = spec.tx;
  // Only the inclusive-basis Pb reads a stream's inclusive service time; with
  // constant blocking the pool would be built and never read.
  out.inclusive = spec.inclusive.empty() || !blocking_state_dependent_
                      ? -1
                      : intern(spec.inclusive);
  return out;
}

int ChannelClassSystem::add_blocking(BlockingSpec spec) {
  CompiledBlocking compiled;
  compiled.divisor = spec.divisor;
  compiled.terms.reserve(spec.terms.size());
  for (const BlockingSpec::Term& term : spec.terms) {
    compiled.terms.push_back(
        {term.weight, compile(term.regular), compile(term.hot)});
  }
  blockings_.push_back(std::move(compiled));
  return static_cast<int>(blockings_.size()) - 1;
}

void ChannelClassSystem::set_eval_order(std::vector<int> order) {
  KNC_ASSERT_MSG(order.size() == classes_.size(),
                 "eval order must cover every slot");
  // A non-permutation would leave some slot unwritten each sweep and blend
  // stale scratch into the state — a silently wrong fixed point.
  std::vector<bool> seen(classes_.size(), false);
  for (const int slot : order) {
    KNC_ASSERT_MSG(slot >= 0 && static_cast<std::size_t>(slot) < classes_.size(),
                   "eval order slot out of range");
    KNC_ASSERT_MSG(!seen[static_cast<std::size_t>(slot)],
                   "eval order must be a permutation (duplicate slot)");
    seen[static_cast<std::size_t>(slot)] = true;
  }
  eval_order_ = std::move(order);
}

bool ChannelClassSystem::blocking_value(const CompiledBlocking& spec,
                                        const std::vector<double>& expr_values,
                                        double& out) const {
  const bool busy_incl = options_.busy_basis == ServiceBasis::kInclusive;
  const auto bind = [&](const CompiledStream& s) {
    return Stream{s.rate,
                  s.inclusive < 0 ? 0.0
                                  : expr_values[static_cast<std::size_t>(s.inclusive)],
                  s.tx};
  };
  double acc = 0.0;
  for (const CompiledTerm& term : spec.terms) {
    const Stream reg = bind(term.regular);
    const Stream hot = bind(term.hot);
    double value = 0.0;
    if (options_.blocking == BlockingVariant::kPaper) {
      const QueueDelay b = blocking_delay(reg, hot, options_.service_floor,
                                          busy_incl, options_.arrival_idc);
      if (b.saturated) return false;
      value = b.value;
    } else {
      // Ablation variant: the merged-stream M/G/1 wait alone (no Pb factor).
      const double rate = reg.rate + hot.rate;
      if (rate > 0.0) {
        const double mean_tx = (reg.rate * reg.tx + hot.rate * hot.tx) / rate;
        const QueueDelay w = mg1_wait(rate, mean_tx, options_.service_floor,
                                      options_.arrival_idc);
        if (w.saturated) return false;
        value = w.value;
      }
    }
    acc += term.weight * value;
  }
  out = acc / spec.divisor;
  return true;
}

std::vector<double> ChannelClassSystem::initial_state() const {
  std::vector<double> s(classes_.size());
  for (std::size_t i = 0; i < classes_.size(); ++i) s[i] = classes_[i].initial;
  return s;
}

bool ChannelClassSystem::step(const std::vector<double>& in,
                              std::vector<double>& out, Workspace& ws) const {
  // All blocking groups close over the *input* iterate (Jacobi across
  // groups); the per-slot recursions then chain within the sweep through
  // output_continuation (Gauss-Seidel along each path). Shared inclusive
  // expressions are evaluated once per sweep via the interned pool (empty
  // when the blocking is state-independent); such blocking is evaluated on
  // the first sweep only (Workspace::blocking_cached).
  if (!ws.blocking_cached) {
    ws.expr_values.resize(expr_pool_.size());
    for (std::size_t i = 0; i < expr_pool_.size(); ++i) {
      ws.expr_values[i] = expr_pool_[i].eval(in);
    }
    ws.blocking_values.resize(blockings_.size());
    for (std::size_t g = 0; g < blockings_.size(); ++g) {
      if (!blocking_value(blockings_[g], ws.expr_values, ws.blocking_values[g])) {
        return false;
      }
    }
    ws.blocking_cached = !blocking_state_dependent_;
  }
  for (const int slot : eval_order_) {
    const ChannelClass& cls = classes_[static_cast<std::size_t>(slot)];
    const double blocking =
        cls.blocking >= 0 ? ws.blocking_values[static_cast<std::size_t>(cls.blocking)]
                          : 0.0;
    out[static_cast<std::size_t>(slot)] = blocking + 1.0 +
                                          cls.input_continuation.eval(in) +
                                          cls.output_continuation.eval(out);
  }
  return true;
}

FixedPointResult ChannelClassSystem::solve(std::vector<double>& state,
                                           const SolvePolicy& policy) const {
  // Every output_continuation reference must already be evaluated within the
  // sweep — a forward reference would read the previous iteration's raw
  // scratch and converge to a silently wrong fixed point. Once per solve,
  // negligible next to the iteration itself, so always on.
  {
    std::vector<bool> visited(classes_.size(), false);
    for (const int slot : eval_order_) {
      classes_[static_cast<std::size_t>(slot)].output_continuation.for_each_term(
          [&](int ref, double) {
            KNC_ASSERT_MSG(
                ref >= 0 && static_cast<std::size_t>(ref) < classes_.size() &&
                    visited[static_cast<std::size_t>(ref)],
                "output_continuation references a slot evaluated later");
          });
      visited[static_cast<std::size_t>(slot)] = true;
    }
  }
  Workspace ws;  // one allocation per solve, reused across sweeps
  auto step_fn = [this, &ws](const std::vector<double>& in,
                             std::vector<double>& out) {
    return step(in, out, ws);
  };
  if (!blocking_state_dependent_) {
    // Exact solve (see the header): undamped sweeps converge on the sweep
    // that reproduces its input, at the same stationary point the polished
    // damped path returns. Anything but convergence within the budget takes
    // the damped path below.
    constexpr int kExactSweepBudget = 48;
    FixedPointOptions exact = policy.options;
    exact.damping = 1.0;
    exact.max_iterations = kExactSweepBudget;
    state = initial_state();
    const FixedPointResult fp = solve_fixed_point(state, step_fn, exact);
    if (fp.converged) return fp;
  }
  state = initial_state();
  FixedPointResult fp = solve_fixed_point(state, step_fn, policy.options);
  if (!fp.converged && !fp.diverged && policy.retry_with_stronger_damping) {
    // Stubborn point near the knee: one retry with stronger damping.
    FixedPointOptions slower = policy.options;
    slower.damping = std::min(policy.retry_damping, policy.options.damping);
    slower.max_iterations =
        policy.options.max_iterations * policy.retry_iteration_multiplier;
    state = initial_state();
    fp = solve_fixed_point(state, step_fn, slower);
  }
  return fp;
}

}  // namespace kncube::model::engine
