#include "model/engine/channel_class.hpp"

#include "model/engine/mg1.hpp"
#include "util/assert.hpp"

namespace kncube::model::engine {

namespace {

std::size_t at(int index) { return static_cast<std::size_t>(index); }

}  // namespace

ChannelClassSystem::ChannelClassSystem(int slots, EngineOptions options)
    : options_(options),
      // Blocking reads the iterated state only through Pb on the inclusive
      // basis (eq 27); on the transmission basis (and for the pure-wait
      // ablation) every blocking input is a constant of the system.
      blocking_state_dependent_(options.blocking == BlockingVariant::kPaper &&
                                options.busy_basis == ServiceBasis::kInclusive) {
  KNC_ASSERT(slots > 0);
  classes_.resize(at(slots));
}

int ChannelClassSystem::add_read(int first, int count) {
  KNC_ASSERT_MSG(first >= 0 && count > 0 && at(first + count) <= classes_.size(),
                 "read slots out of range");
  if (!blocking_state_dependent_) return -1;
  reads_.push_back({first, count});
  return static_cast<int>(reads_.size()) - 1;
}

int ChannelClassSystem::add_term(const TermStream& regular, const TermStream& hot) {
  terms_.push_back({regular, hot});
  return static_cast<int>(terms_.size()) - 1;
}

int ChannelClassSystem::add_mixture(std::initializer_list<Weighted> items,
                                    double divisor) {
  const int begin = static_cast<int>(items_.size());
  for (const Weighted& item : items) {
    KNC_ASSERT_MSG(item.term >= 0 && at(item.term) < terms_.size(),
                   "mixture term out of range");
    items_.push_back(item);
  }
  mixtures_.push_back({begin, static_cast<int>(items_.size()), divisor});
  return static_cast<int>(mixtures_.size()) - 1;
}

int ChannelClassSystem::add_term_mean(int first, int count) {
  KNC_ASSERT_MSG(first >= 0 && count > 0 && at(first + count) <= terms_.size(),
                 "mixture term out of range");
  const int begin = static_cast<int>(items_.size());
  for (int i = 0; i < count; ++i) items_.push_back({first + i, 1.0});
  mixtures_.push_back(
      {begin, static_cast<int>(items_.size()), static_cast<double>(count)});
  return static_cast<int>(mixtures_.size()) - 1;
}

Linear ChannelClassSystem::slot(int index) {
  const Coef coef{index, 1.0};
  return linear(0.0, {&coef, 1});
}

Linear ChannelClassSystem::mean(int first, int count) {
  KNC_ASSERT(count > 0);
  Linear lin{0.0, static_cast<double>(count), static_cast<int>(coefs_.size()), 0};
  for (int i = 0; i < count; ++i) coefs_.push_back({first + i, 1.0});
  lin.end = static_cast<int>(coefs_.size());
  return lin;
}

Linear ChannelClassSystem::linear(double constant, std::span<const Coef> coefs) {
  Linear lin{constant, 1.0, static_cast<int>(coefs_.size()), 0};
  coefs_.insert(coefs_.end(), coefs.begin(), coefs.end());
  lin.end = static_cast<int>(coefs_.size());
  return lin;
}

void ChannelClassSystem::set_class(int slot, const ChannelClass& cls) {
  KNC_ASSERT_MSG(slot >= 0 && at(slot) < classes_.size(), "class slot out of range");
  KNC_ASSERT_MSG(cls.blocking >= -1 && cls.blocking < static_cast<int>(mixtures_.size()),
                 "class blocking is not a declared mixture");
  const auto reads_below = [&](const Linear& lin, int limit) {
    if (lin.begin < 0 || lin.begin > lin.end || at(lin.end) > coefs_.size()) return false;
    for (int c = lin.begin; c < lin.end; ++c) {
      const int ref = coefs_[at(c)].slot;
      if (ref < 0 || ref >= limit) return false;
    }
    return true;
  };
  KNC_ASSERT_MSG(reads_below(cls.input, static_cast<int>(classes_.size())),
                 "continuation reads a slot out of range");
  KNC_ASSERT_MSG(reads_below(cls.output, slot),
                 "within-sweep continuation must read an earlier slot");
  classes_[at(slot)] = cls;
}

double ChannelClassSystem::eval(const Linear& lin, const std::vector<double>& s) const {
  double acc = 0.0;
  for (int c = lin.begin; c < lin.end; ++c) {
    const Coef& coef = coefs_[at(c)];
    acc += coef.weight * s[at(coef.slot)];
  }
  return lin.constant + acc / lin.divisor;
}

bool ChannelClassSystem::term_value(const Term& term, const std::vector<double>& reads,
                                    double& out) const {
  const auto bind = [&](const TermStream& s) {
    return Stream{s.rate, s.read < 0 ? 0.0 : reads[at(s.read)], s.tx};
  };
  const Stream reg = bind(term.regular);
  const Stream hot = bind(term.hot);
  if (options_.blocking == BlockingVariant::kPaper) {
    const QueueDelay b =
        blocking_delay(reg, hot, options_.service_floor,
                       options_.busy_basis == ServiceBasis::kInclusive,
                       options_.arrival_idc);
    out = b.value;
    return !b.saturated;
  }
  // Ablation variant: the merged-stream M/G/1 wait alone (no Pb factor).
  out = 0.0;
  const double rate = reg.rate + hot.rate;
  if (rate <= 0.0) return true;
  const double mean_tx = (reg.rate * reg.tx + hot.rate * hot.tx) / rate;
  const QueueDelay w =
      mg1_wait(rate, mean_tx, options_.service_floor, options_.arrival_idc);
  out = w.value;
  return !w.saturated;
}

bool ChannelClassSystem::step(const std::vector<double>& in, std::vector<double>& out,
                              Workspace& ws) const {
  // Reads, terms and mixtures close over the *input* iterate (Jacobi across
  // classes); the per-slot recursions then chain within the sweep through
  // the output continuations (Gauss-Seidel along each path). Constant
  // blocking is evaluated on the first sweep only (Workspace::blocking_cached).
  if (!ws.blocking_cached) {
    for (std::size_t r = 0; r < reads_.size(); ++r) {
      double acc = 0.0;
      for (int i = 0; i < reads_[r].count; ++i) acc += in[at(reads_[r].first + i)];
      ws.reads[r] = acc / static_cast<double>(reads_[r].count);
    }
    for (std::size_t t = 0; t < terms_.size(); ++t) {
      if (!term_value(terms_[t], ws.reads, ws.terms[t])) return false;
    }
    for (std::size_t m = 0; m < mixtures_.size(); ++m) {
      double acc = 0.0;
      for (int i = mixtures_[m].begin; i < mixtures_[m].end; ++i) {
        acc += items_[at(i)].weight * ws.terms[at(items_[at(i)].term)];
      }
      ws.mixtures[m] = acc / mixtures_[m].divisor;
    }
    ws.blocking_cached = !blocking_state_dependent_;
  }
  for (std::size_t slot = 0; slot < classes_.size(); ++slot) {
    const ChannelClass& cls = classes_[slot];
    const double blocking = cls.blocking >= 0 ? ws.mixtures[at(cls.blocking)] : 0.0;
    out[slot] = blocking + 1.0 + eval(cls.input, in) + eval(cls.output, out);
  }
  return true;
}

FixedPointResult ChannelClassSystem::solve(std::vector<double>& state) const {
  Workspace ws;  // one allocation per solve, reused across sweeps
  ws.reads.resize(reads_.size());
  ws.terms.resize(terms_.size());
  ws.mixtures.resize(mixtures_.size());
  const auto step_fn = [this, &ws](const std::vector<double>& in,
                                   std::vector<double>& out) {
    return step(in, out, ws);
  };
  const auto run_from_zero_load = [&](const FixedPointOptions& options) {
    state.resize(classes_.size());
    for (std::size_t i = 0; i < classes_.size(); ++i) state[i] = classes_[i].initial;
    return solve_fixed_point(state, step_fn, options);
  };
  const FixedPointOptions damped{};
  if (!blocking_state_dependent_) {
    // Exact solve (see the header): undamped sweeps converge on the sweep
    // that reproduces its input, at the same stationary point the polished
    // damped path returns. Anything but convergence within the budget takes
    // the damped path below.
    FixedPointOptions exact = damped;
    exact.damping = 1.0;
    exact.max_iterations = 48;
    const FixedPointResult fp = run_from_zero_load(exact);
    if (fp.converged) return fp;
  }
  FixedPointResult fp = run_from_zero_load(damped);
  if (!fp.converged && !fp.diverged) {
    // Stubborn point near the knee (R7): one retry with stronger damping
    // and a doubled budget.
    FixedPointOptions slower = damped;
    slower.damping = 0.2;
    slower.max_iterations = 2 * damped.max_iterations;
    fp = run_from_zero_load(slower);
  }
  return fp;
}

}  // namespace kncube::model::engine
