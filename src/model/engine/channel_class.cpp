#include "model/engine/channel_class.hpp"

#include <utility>

#include "model/engine/mg1.hpp"
#include "util/assert.hpp"

namespace kncube::model::engine {

namespace {

std::size_t at(int index) { return static_cast<std::size_t>(index); }

/// The most spare storage a thread keeps of each kind (a system's arrays, a
/// solve's workspace). Every model within kMaxClasses fits, but a model's
/// size is not its class count alone (a mesh continuation carries O(k)
/// coefficients), so larger storage is freed rather than kept.
constexpr std::size_t kMaxSpareBytes = std::size_t{16} << 20;

template <class... Vectors>
std::size_t capacity_bytes(const Vectors&... v) {
  return (... + (v.capacity() * sizeof(typename Vectors::value_type)));
}

/// The calling thread's spare workspace (possibly empty).
Workspace& spare_workspace() {
  thread_local Workspace spare;
  return spare;
}

}  // namespace

ChannelClassSystem::Arrays& ChannelClassSystem::spare_arrays() {
  thread_local Arrays spare;
  return spare;
}

ThreadWorkspace::ThreadWorkspace() { std::swap(ws_, spare_workspace()); }

ThreadWorkspace::~ThreadWorkspace() {
  // Handed back grown if this solve needed more, unless it outgrew
  // kMaxSpareBytes (a second ThreadWorkspace on the thread took an empty
  // spare and hands back whichever is larger).
  Workspace& spare = spare_workspace();
  std::size_t bytes = capacity_bytes(ws_.rates, ws_.state, ws_.reads, ws_.terms,
                                     ws_.mixtures, ws_.sweep.next, ws_.sweep.prev);
  for (const std::vector<double>& v : ws_.scratch) bytes += capacity_bytes(v);
  if (ws_.state.capacity() >= spare.state.capacity() && bytes <= kMaxSpareBytes) {
    std::swap(ws_, spare);
  }
}

ChannelClassSystem::ChannelClassSystem(int slots, int rates, EngineOptions options)
    : options_(options),
      rate_count_(rates),
      // Blocking reads the iterated state only through Pb on the inclusive
      // basis (eq 27); on the transmission basis (and for the pure-wait
      // ablation) every blocking input is a constant of the system.
      blocking_state_dependent_(options.blocking == BlockingVariant::kPaper &&
                                options.busy_basis == ServiceBasis::kInclusive) {
  KNC_ASSERT_MSG(slots > 0 && slots <= kMaxClasses, "class count out of range");
  KNC_ASSERT_MSG(rates >= 0, "rate count out of range");
  std::swap(a_, spare_arrays());
  a_.reads.clear();
  a_.terms.clear();
  a_.items.clear();
  a_.mixtures.clear();
  a_.coefs.clear();
  a_.classes.assign(at(slots), ChannelClass{});
}

ChannelClassSystem::~ChannelClassSystem() {
  // The spare keeps the larger of the two: a moved-from system (or a second
  // system alive on the thread) must not displace bigger storage.
  Arrays& spare = spare_arrays();
  if (a_.classes.capacity() > spare.classes.capacity() &&
      capacity_bytes(a_.classes, a_.reads, a_.terms, a_.items, a_.mixtures, a_.coefs) <=
          kMaxSpareBytes) {
    std::swap(a_, spare);
  }
}

int ChannelClassSystem::add_read(int first, int count) {
  KNC_ASSERT_MSG(first >= 0 && count > 0 && at(first + count) <= a_.classes.size(),
                 "read slots out of range");
  if (!blocking_state_dependent_) return -1;
  a_.reads.push_back({first, count});
  return static_cast<int>(a_.reads.size()) - 1;
}

int ChannelClassSystem::add_term(const TermStream& regular, const TermStream& hot) {
  KNC_ASSERT_MSG(regular.rate >= -1 && regular.rate < rate_count_ && hot.rate >= -1 &&
                     hot.rate < rate_count_,
                 "stream rate slot out of range");
  a_.terms.push_back({regular, hot});
  return static_cast<int>(a_.terms.size()) - 1;
}

int ChannelClassSystem::add_mixture(std::initializer_list<Weighted> items,
                                    double divisor) {
  const int begin = static_cast<int>(a_.items.size());
  for (const Weighted& item : items) {
    KNC_ASSERT_MSG(item.term >= 0 && at(item.term) < a_.terms.size(),
                   "mixture term out of range");
    a_.items.push_back(item);
  }
  a_.mixtures.push_back({begin, static_cast<int>(a_.items.size()), divisor});
  return static_cast<int>(a_.mixtures.size()) - 1;
}

int ChannelClassSystem::add_term_mean(int first, int count) {
  KNC_ASSERT_MSG(first >= 0 && count > 0 && at(first + count) <= a_.terms.size(),
                 "mixture term out of range");
  const int begin = static_cast<int>(a_.items.size());
  for (int i = 0; i < count; ++i) a_.items.push_back({first + i, 1.0});
  a_.mixtures.push_back(
      {begin, static_cast<int>(a_.items.size()), static_cast<double>(count)});
  return static_cast<int>(a_.mixtures.size()) - 1;
}

Linear ChannelClassSystem::slot(int index) {
  const Coef coef{index, 1.0};
  return linear(0.0, {&coef, 1});
}

Linear ChannelClassSystem::mean(int first, int count) {
  KNC_ASSERT(count > 0);
  Linear lin{0.0, static_cast<double>(count), static_cast<int>(a_.coefs.size()), 0};
  for (int i = 0; i < count; ++i) a_.coefs.push_back({first + i, 1.0});
  lin.end = static_cast<int>(a_.coefs.size());
  return lin;
}

Linear ChannelClassSystem::linear(double constant, std::span<const Coef> coefs) {
  Linear lin{constant, 1.0, static_cast<int>(a_.coefs.size()), 0};
  a_.coefs.insert(a_.coefs.end(), coefs.begin(), coefs.end());
  lin.end = static_cast<int>(a_.coefs.size());
  return lin;
}

void ChannelClassSystem::set_class(int slot, const ChannelClass& cls) {
  KNC_ASSERT_MSG(slot >= 0 && at(slot) < a_.classes.size(), "class slot out of range");
  KNC_ASSERT_MSG(
      cls.blocking >= -1 && cls.blocking < static_cast<int>(a_.mixtures.size()),
      "class blocking is not a declared mixture");
  const auto reads_below = [&](const Linear& lin, int limit) {
    if (lin.begin < 0 || lin.begin > lin.end || at(lin.end) > a_.coefs.size()) {
      return false;
    }
    for (int c = lin.begin; c < lin.end; ++c) {
      const int ref = a_.coefs[at(c)].slot;
      if (ref < 0 || ref >= limit) return false;
    }
    return true;
  };
  KNC_ASSERT_MSG(reads_below(cls.input, static_cast<int>(a_.classes.size())),
                 "continuation reads a slot out of range");
  KNC_ASSERT_MSG(reads_below(cls.output, slot),
                 "within-sweep continuation must read an earlier slot");
  a_.classes[at(slot)] = cls;
}

double ChannelClassSystem::eval(const Linear& lin, const std::vector<double>& s) const {
  double acc = 0.0;
  for (int c = lin.begin; c < lin.end; ++c) {
    const Coef& coef = a_.coefs[at(c)];
    acc += coef.weight * s[at(coef.slot)];
  }
  // x / 1.0 == x for every double, so the common unit divisor skips a
  // division on the sweep's serial chain without changing a bit.
  return lin.constant + (lin.divisor == 1.0 ? acc : acc / lin.divisor);
}

bool ChannelClassSystem::term_value(const Term& term, const Workspace& ws,
                                    double& out) const {
  const auto bind = [&](const TermStream& s) {
    return Stream{s.rate < 0 ? 0.0 : ws.rates[at(s.rate)],
                  s.read < 0 ? 0.0 : ws.reads[at(s.read)], s.tx};
  };
  const Stream reg = bind(term.regular);
  const Stream hot = bind(term.hot);
  if (options_.blocking == BlockingVariant::kPaper) {
    const QueueDelay b =
        blocking_delay(reg, hot, options_.service_floor,
                       options_.busy_basis == ServiceBasis::kInclusive,
                       ws.arrival_idc);
    out = b.value;
    return !b.saturated;
  }
  // Ablation variant: the merged-stream M/G/1 wait alone (no Pb factor).
  out = 0.0;
  const double rate = reg.rate + hot.rate;
  if (rate <= 0.0) return true;
  const double mean_tx = (reg.rate * reg.tx + hot.rate * hot.tx) / rate;
  const QueueDelay w =
      mg1_wait(rate, mean_tx, options_.service_floor, ws.arrival_idc);
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
    for (std::size_t r = 0; r < a_.reads.size(); ++r) {
      double acc = 0.0;
      for (int i = 0; i < a_.reads[r].count; ++i) acc += in[at(a_.reads[r].first + i)];
      ws.reads[r] = acc / static_cast<double>(a_.reads[r].count);
    }
    for (std::size_t t = 0; t < a_.terms.size(); ++t) {
      if (!term_value(a_.terms[t], ws, ws.terms[t])) return false;
    }
    for (std::size_t m = 0; m < a_.mixtures.size(); ++m) {
      double acc = 0.0;
      for (int i = a_.mixtures[m].begin; i < a_.mixtures[m].end; ++i) {
        acc += a_.items[at(i)].weight * ws.terms[at(a_.items[at(i)].term)];
      }
      const double divisor = a_.mixtures[m].divisor;
      ws.mixtures[m] = divisor == 1.0 ? acc : acc / divisor;
    }
    ws.blocking_cached = !blocking_state_dependent_;
  }
  for (std::size_t slot = 0; slot < a_.classes.size(); ++slot) {
    const ChannelClass& cls = a_.classes[slot];
    const double blocking = cls.blocking >= 0 ? ws.mixtures[at(cls.blocking)] : 0.0;
    out[slot] = blocking + 1.0 + eval(cls.input, in) + eval(cls.output, out);
  }
  return true;
}

FixedPointResult ChannelClassSystem::solve(Workspace& ws, double arrival_idc) const {
  KNC_ASSERT_MSG(ws.rates.size() == at(rate_count_),
                 "rate table size differs from the system's");
  // Every workspace value is written before it is read, so resizing (not
  // clearing) suffices; only the blocking cache must start empty.
  ws.reads.resize(a_.reads.size());
  ws.terms.resize(a_.terms.size());
  ws.mixtures.resize(a_.mixtures.size());
  ws.arrival_idc = arrival_idc;
  ws.blocking_cached = false;
  const auto step_fn = [this, &ws](const std::vector<double>& in,
                                   std::vector<double>& out) {
    return step(in, out, ws);
  };
  const auto run_from_zero_load = [&](const FixedPointOptions& options) {
    ws.state.resize(a_.classes.size());
    for (std::size_t i = 0; i < a_.classes.size(); ++i) {
      ws.state[i] = a_.classes[i].initial;
    }
    return solve_fixed_point(ws.state, step_fn, options, ws.sweep);
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
