#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <thread>

namespace perfbench {

namespace core = kncube::core;

// ------------------------------------------------------------- clocks/stats --

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SeededRng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return mix(state_, 0);
}

unsigned hardware_lanes() {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (online > 0) return static_cast<unsigned>(online);
  return std::max(1u, std::thread::hardware_concurrency());
}

// ----------------------------------------------------------- host stamp ---

namespace {

double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace

HostSample sample_host() {
  HostSample s;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (stat >> label && label == "cpu") {
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    std::uint64_t ticks[8] = {};
    for (auto& t : ticks) stat >> t;
    for (const auto t : ticks) s.total_ticks += t;
    s.steal_ticks = ticks[7];
  }
  s.process_cpu_s = process_cpu_seconds();
  s.wall = Clock::now();
  return s;
}

HostStamp host_between(const HostSample& a, const HostSample& b, unsigned lanes) {
  HostStamp h;
  const std::uint64_t total = b.total_ticks - a.total_ticks;
  if (total > 0) {
    h.steal_ratio = static_cast<double>(b.steal_ticks - a.steal_ticks) /
                    static_cast<double>(total);
  }
  const double wall = std::chrono::duration<double>(b.wall - a.wall).count();
  if (wall > 0.0 && lanes > 0) {
    h.cpu_util = (b.process_cpu_s - a.process_cpu_s) / (wall * lanes);
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ----------------------------------------------------------------- report ---

void Tally::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  if (problems.size() < 8) problems.push_back(why);
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& p : other.problems) {
    if (problems.size() < 8) problems.push_back(p);
  }
}

// ------------------------------------------------------------------ trace ---

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Tracer::set_context(Context ctx) noexcept {
  ctx_parent_.store(ctx.parent, std::memory_order_relaxed);
  ctx_request_.store(ctx.request, std::memory_order_relaxed);
}

Tracer::Context Tracer::context() const noexcept {
  return {ctx_parent_.load(std::memory_order_relaxed),
          ctx_request_.load(std::memory_order_relaxed)};
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<Span> Tracer::since(std::size_t mark) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (mark >= spans_.size()) return {};
  return {spans_.begin() + static_cast<std::ptrdiff_t>(mark), spans_.end()};
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"layer\":\"" << s.layer << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

ScopedSpan::ScopedSpan(const char* name, const char* layer, std::uint64_t parent,
                       std::uint64_t request)
    : on_(Tracer::get().enabled()) {
  if (!on_) return;
  span_.id = Tracer::get().new_id();
  span_.parent = parent;
  span_.request = request;
  span_.name = name;
  span_.layer = layer;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = now_ns();
  Tracer::get().record(span_);
}

std::map<std::string, double> self_ms_by_layer(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) children[s.parent].push_back(&s);
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    if (auto it = children.find(s.id); it != children.end() && s.id != 0) {
      for (const Span* c : it->second) {
        const std::uint64_t a = std::max(c->start_ns, s.start_ns);
        const std::uint64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    out[s.layer] += 1e-6 * static_cast<double>(dur - std::min(dur, covered));
  }
  return out;
}

// ------------------------------------------------------ timing decorator ---

namespace {

/// Per-thread end of the last miss of each kind: the engine solves/simulates
/// on the thread that missed, then stores on that same thread.
thread_local std::uint64_t t_model_miss_ns = 0;
thread_local std::uint64_t t_sim_miss_ns = 0;
thread_local std::uint64_t t_saturation_miss_ns = 0;

void trace_span(const char* name, const char* layer, std::uint64_t t0,
                std::uint64_t t1) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  const Tracer::Context ctx = tracer.context();
  Span s;
  s.id = tracer.new_id();
  s.parent = ctx.parent;
  s.request = ctx.request;
  s.name = name;
  s.layer = layer;
  s.start_ns = t0;
  s.end_ns = t1;
  tracer.record(s);
}

}  // namespace

TimedStore::TimedStore(std::shared_ptr<core::ResultStore> inner)
    : inner_(std::move(inner)),
      append_layer_(std::string(inner_->kind()) == "disk" ? "service" : "core") {}

void TimedStore::note_load(bool hit, std::uint64_t t0, std::uint64_t t1,
                           const char* name) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.loads;
    counters_.hits += hit ? 1 : 0;
    counters_.load_ns += t1 - t0;
  }
  trace_span(name, "core", t0, t1);
}

void TimedStore::note_append(std::uint64_t t0, std::uint64_t t1, const char* name) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.appends;
    counters_.append_ns += t1 - t0;
  }
  trace_span(name, append_layer_, t0, t1);
}

bool TimedStore::load_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                            core::ModelEntry* out) {
  const std::uint64_t t0 = now_ns();
  const bool hit = inner_->load_model(spec_key, lambda_bits, out);
  const std::uint64_t t1 = now_ns();
  note_load(hit, t0, t1, "ResultStore::load_model");
  t_model_miss_ns = now_ns();
  return hit;
}

bool TimedStore::warm_state_at_or_below(std::uint64_t spec_key,
                                        std::uint64_t lambda_bits,
                                        std::vector<double>* state) {
  const bool found = inner_->warm_state_at_or_below(spec_key, lambda_bits, state);
  t_model_miss_ns = now_ns();  // the solve starts after the warm lookup
  return found;
}

void TimedStore::store_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                             const core::ModelEntry& entry) {
  const std::uint64_t t0 = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.solves;
    counters_.solve_ns += t0 - t_model_miss_ns;
    counters_.solve_iterations += static_cast<std::uint64_t>(entry.result.iterations);
  }
  trace_span("AnalyticalModel::solve_at", "model", t_model_miss_ns, t0);
  inner_->store_model(spec_key, lambda_bits, entry);
  note_append(t0, now_ns(), "ResultStore::store_model");
}

bool TimedStore::load_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                          std::uint64_t seed, kncube::sim::SimResult* out) {
  const std::uint64_t t0 = now_ns();
  const bool hit = inner_->load_sim(spec_key, lambda_bits, seed, out);
  const std::uint64_t t1 = now_ns();
  note_load(hit, t0, t1, "ResultStore::load_sim");
  t_sim_miss_ns = now_ns();
  return hit;
}

void TimedStore::store_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                           std::uint64_t seed, const kncube::sim::SimResult& result) {
  const std::uint64_t t0 = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SimRun run;
    run.lambda = std::bit_cast<double>(lambda_bits);
    run.ns = t0 - t_sim_miss_ns;
    run.result = result;
    counters_.sims.push_back(run);
  }
  trace_span("Simulator::run", "sim", t_sim_miss_ns, t0);
  inner_->store_sim(spec_key, lambda_bits, seed, result);
  note_append(t0, now_ns(), "ResultStore::store_sim");
}

bool TimedStore::load_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                                 core::SaturationResult* out) {
  const std::uint64_t t0 = now_ns();
  const bool hit = inner_->load_saturation(spec_key, tol_bits, out);
  const std::uint64_t t1 = now_ns();
  note_load(hit, t0, t1, "ResultStore::load_saturation");
  t_saturation_miss_ns = now_ns();
  return hit;
}

void TimedStore::store_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                                  const core::SaturationResult& result) {
  const std::uint64_t t0 = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.saturations;
    counters_.saturation_ns += t0 - t_saturation_miss_ns;
  }
  inner_->store_saturation(spec_key, tol_bits, result);
  note_append(t0, now_ns(), "ResultStore::store_saturation");
}

TimedStore::Counters TimedStore::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace perfbench
