// Shared machinery of the kncube benchmark: clocks and order statistics,
// seeded input generation, the host-interference stamp, the in-memory span
// tracer, and the timing ResultStore decorator that puts spans around the
// library's store, model-solve and simulation boundaries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/result_store.hpp"

namespace perfbench {

// ------------------------------------------------------------- clocks/stats --

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock); the time base of every span.
std::uint64_t now_ns();
double seconds_since(Clock::time_point start);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// True when at least ten samples lie beyond the q-quantile of n samples —
/// the rule for reporting a tail percentile at all.
inline bool tail_resolved(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

/// SplitMix64 step: derives independent, reproducible streams from the
/// workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Logical processors available to this process.
unsigned hardware_lanes();

// ----------------------------------------------------------- host stamp ---

/// Aggregate /proc/stat ticks plus this process's CPU time, sampled at one
/// instant; two samples bracket a run.
struct HostSample {
  std::uint64_t steal_ticks = 0;
  std::uint64_t total_ticks = 0;
  double process_cpu_s = 0.0;
  Clock::time_point wall{};
};
HostSample sample_host();

struct HostStamp {
  /// Share of all host CPU ticks stolen by the hypervisor between samples.
  double steal_ratio = 0.0;
  /// This process's CPU time / (wall x lanes).
  double cpu_util = 0.0;
};
HostStamp host_between(const HostSample& a, const HostSample& b, unsigned lanes);

double peak_rss_mb();

// ----------------------------------------------------------------- report ---

/// One named metric value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Operations attempted / failed by a workload or slice (an operation is a
/// sweep point, a step window or a request).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first few failure descriptions

  void fail(const std::string& why, std::uint64_t count = 1);
  void merge(const Tally& other);
};

// ------------------------------------------------------------------ trace ---

/// One recorded interval. `parent` is 0 for a root; spans of one request or
/// sweep share `request`. Names and layers are string literals.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  const char* layer = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Process-wide span recorder, off unless enabled. Spans stay in memory and
/// are written as JSON lines when the run ends. The context (parent span and
/// request id) is set by the benchmark thread before it calls into the
/// library, so spans recorded on library threads (pool workers, server
/// connection threads) attach to the call that caused them.
class Tracer {
 public:
  static Tracer& get();

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t new_id() noexcept { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);

  struct Context {
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
  };
  void set_context(Context ctx) noexcept;
  Context context() const noexcept;

  /// Spans recorded so far; `since(mark)` returns those after a size() mark.
  std::size_t size() const;
  std::vector<Span> since(std::size_t mark) const;
  /// Writes every recorded span, one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> ctx_parent_{0};
  std::atomic<std::uint64_t> ctx_request_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread; a no-op while tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, std::uint64_t parent,
             std::uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }

 private:
  Span span_;
  bool on_;
};

/// Self time per layer (ms): each span's duration minus the part of its
/// interval covered by the union of its children.
std::map<std::string, double> self_ms_by_layer(const std::vector<Span>& spans);

// ------------------------------------------------------ timing decorator ---

/// ResultStore decorator: forwards every call to `inner` and records, per
/// call, its duration (store spans) plus the work the engine did between a
/// miss and the matching store on the same thread — a model solve, a
/// simulation or a saturation search — as spans and counters. Used only in
/// traced runs; untraced runs hand the engine the plain store.
class TimedStore final : public kncube::core::ResultStore {
 public:
  explicit TimedStore(std::shared_ptr<kncube::core::ResultStore> inner);

  bool load_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                  kncube::core::ModelEntry* out) override;
  void store_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                   const kncube::core::ModelEntry& entry) override;
  bool warm_state_at_or_below(std::uint64_t spec_key, std::uint64_t lambda_bits,
                              std::vector<double>* state) override;
  bool load_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                std::uint64_t seed, kncube::sim::SimResult* out) override;
  void store_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                 std::uint64_t seed, const kncube::sim::SimResult& result) override;
  bool load_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                       kncube::core::SaturationResult* out) override;
  void store_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                        const kncube::core::SaturationResult& result) override;
  kncube::core::StoreSizes sizes() const override { return inner_->sizes(); }
  void clear() override { inner_->clear(); }
  void flush() override { inner_->flush(); }
  const char* kind() const noexcept override { return inner_->kind(); }

  struct SimRun {
    double lambda = 0.0;
    std::uint64_t ns = 0;
    kncube::sim::SimResult result;
  };
  struct Counters {
    std::uint64_t loads = 0, hits = 0, load_ns = 0;
    std::uint64_t appends = 0, append_ns = 0;
    std::uint64_t solves = 0, solve_ns = 0, solve_iterations = 0;
    std::uint64_t saturations = 0, saturation_ns = 0;
    std::vector<SimRun> sims;
  };
  Counters counters() const;

 private:
  void note_load(bool hit, std::uint64_t t0, std::uint64_t t1, const char* name);
  void note_append(std::uint64_t t0, std::uint64_t t1, const char* name);

  std::shared_ptr<kncube::core::ResultStore> inner_;
  const char* append_layer_;  ///< "service" for the disk store, else "core"
  mutable std::mutex mutex_;
  Counters counters_;
};

}  // namespace perfbench
