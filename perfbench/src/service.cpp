// service-mixed: an in-process capacity-planning daemon (service::Server on a
// Unix socket, backed by a fresh DiskResultStore) and one service::Client
// connection in a closed loop. The client sends model-only 16-point sweep
// requests over seeded hot-spot torus specs (k in {16, 24, 32}, varied h, Lm
// and V): each spec is asked once cold (bisection, fixed-point solves, disk
// appends) and later repeated warm (store reads only), about 1 cold to 4 warm.
// The stream runs in epochs of kBlocksPerEpoch blocks, each epoch on a fresh
// daemon and store, so memory and store size stay bounded however fast the
// requests complete.
#include <bit>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "core/kncube.hpp"
#include "service/client.hpp"
#include "service/disk_store.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = kncube::core;
namespace svc = kncube::service;

namespace {

constexpr int kPoints = 16;
constexpr int kWarmPerCold = 4;
constexpr int kBlocksPerEpoch = 20;
constexpr int kMinEpochs = 2;
constexpr int kSliceBlocks = 8;
constexpr int kCodecPasses = 5;

constexpr int kRadices[] = {16, 24, 32};
constexpr int kLengths[] = {16, 32, 64};
constexpr int kVcs[] = {2, 3, 4};

/// Generates the request stream: fresh cold specs and warm repeats.
class SpecStream {
 public:
  explicit SpecStream(std::uint64_t seed) : rng_(mix(seed, 7)) {}

  core::ScenarioSpec next_cold() {
    for (;;) {
      std::ostringstream text;
      text << "topology.kind=torus\n"
           << "topology.k=" << kRadices[rng_.below(3)] << "\n"
           << "topology.n=2\n"
           << "topology.bidirectional=false\n"
           << "traffic.kind=hotspot\n"
           << "traffic.hot_fraction=" << std::fixed << std::setprecision(4)
           << 0.05 + 0.40 * static_cast<double>(rng_.below(4001)) / 4000.0 << "\n"
           << "arrivals.kind=bernoulli\n"
           << "router.vcs=" << kVcs[rng_.below(3)] << "\n"
           << "workload.message_length=" << kLengths[rng_.below(3)] << "\n";
      core::ScenarioSpec spec = core::parse_scenario(text.str());
      spec.validate();
      if (seen_.insert(spec.key()).second) return spec;
    }
  }
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_.below(n)); }

 private:
  SeededRng rng_;
  std::set<std::uint64_t> seen_;
};

svc::Request sweep_request() {
  svc::Request r;
  r.points = kPoints;
  r.lo = 0.1;
  r.hi = 0.95;
  r.with_sim = false;
  return r;
}

/// An in-process daemon plus one connected client. Paths are relative to the
/// working directory, which perfbench/run.py points at a scratch directory
/// inside the checkout.
class Daemon {
 public:
  Daemon(int serial, std::shared_ptr<core::ResultStore> store)
      : socket_("kncube-" + std::to_string(serial) + ".sock") {
    svc::ServerOptions options;
    options.socket_path = socket_;
    options.store = std::move(store);
    server_ = std::make_unique<svc::Server>(options);
    server_->bind();
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        // The client's next read fails, which the stream counts.
        std::fprintf(stderr, "service-mixed: server loop failed: %s\n", e.what());
      }
    });
    try {
      client_ = std::make_unique<svc::Client>(socket_);
    } catch (...) {
      shut_down();
      throw;
    }
  }
  ~Daemon() { shut_down(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  svc::Client& client() { return *client_; }
  svc::Server& server() { return *server_; }

 private:
  void shut_down() {
    client_.reset();
    server_->stop();
    if (thread_.joinable()) thread_.join();
  }

  std::string socket_;
  std::unique_ptr<svc::Server> server_;
  std::unique_ptr<svc::Client> client_;
  std::thread thread_;
};

std::string store_path(int serial) { return "store-" + std::to_string(serial) + ".kcs"; }

/// The same request answered by an untimed in-process SweepEngine.
struct Answer {
  core::SaturationResult sat;
  std::vector<core::PointResult> points;
};

Answer solve_in_process(core::SweepEngine& engine) {
  Answer a;
  a.sat = engine.saturation_rate();
  a.points = engine.run(engine.lambda_sweep(kPoints, 0.1, 0.95), false);
  return a;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_answer(const svc::Client::SweepOutcome& got, const Answer& want) {
  if (!got.has_sweep || !same_bits(got.sweep.saturation, want.sat.rate) ||
      got.sweep.probes != want.sat.probes || got.points.size() != want.points.size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    const core::PointResult& g = got.points[i];
    const core::PointResult& w = want.points[i];
    if (!same_bits(g.lambda, w.lambda) || g.has_model != w.has_model ||
        g.has_sim || !same_bits(g.model.latency, w.model.latency) ||
        g.model.saturated != w.model.saturated ||
        g.model.converged != w.model.converged ||
        !same_bits(g.model.max_channel_utilization, w.model.max_channel_utilization)) {
      return false;
    }
  }
  return true;
}

/// A spec asked cold in this epoch, with its in-process twin engine (whose
/// memory store stays warm for the repeats).
struct Asked {
  core::ScenarioSpec spec;
  std::unique_ptr<core::SweepEngine> twin;
  Answer answer;
};

struct Sent {
  bool cold = false;
  double ms = 0.0;
  svc::Client::SweepOutcome outcome;
  std::size_t asked = 0;  ///< index into the epoch's Asked list
};

/// Sends one request and checks it against the twin answer.
Sent send(svc::Client& client, std::vector<Asked>& asked, std::size_t index,
          bool cold, std::uint64_t request, Tally& tally) {
  Sent s;
  s.cold = cold;
  s.asked = index;
  ++tally.attempted;
  try {
    ScopedSpan span("Client::run", "service", 0, request);
    Tracer::get().set_context({span.id(), request});
    const auto t0 = Clock::now();
    s.outcome = client.run(asked[index].spec, sweep_request());
    s.ms = 1e3 * seconds_since(t0);
  } catch (const std::exception& e) {
    tally.fail(std::string("service-mixed: request failed: ") + e.what());
  }
  Tracer::get().set_context({});
  if (s.ms == 0.0) return s;
  Asked& a = asked[index];
  if (!a.twin) {
    a.twin = std::make_unique<core::SweepEngine>(a.spec);
    a.answer = solve_in_process(*a.twin);
  }
  if (!same_answer(s.outcome, a.answer)) {
    tally.fail("service-mixed: answer differs from the in-process solve");
  }
  return s;
}

/// One block: a new spec cold, then kWarmPerCold repeats of specs already
/// asked in this epoch.
void send_block(svc::Client& client, SpecStream& stream, std::vector<Asked>& asked,
                std::vector<Sent>& sent, Tally& tally) {
  asked.push_back({stream.next_cold(), nullptr, {}});
  sent.push_back(send(client, asked, asked.size() - 1, true, sent.size() + 1, tally));
  for (int w = 0; w < kWarmPerCold; ++w) {
    const std::size_t index = stream.pick(asked.size());
    sent.push_back(send(client, asked, index, false, sent.size() + 1, tally));
  }
}

void percentile_line(std::vector<std::string>& lines, const std::string& name,
                     const std::vector<double>& ms, double q) {
  if (q == 0.5 || tail_resolved(ms.size(), q)) {
    lines.push_back(report_line(name, quantile(ms, q), "ms", ms.size()));
  } else {
    lines.push_back(name + " unresolved: fewer than 10 of " +
                    std::to_string(ms.size()) + " samples beyond it");
  }
}

}  // namespace

WorkloadResult run_service(const RunOptions& opt) {
  WorkloadResult out;
  SpecStream stream(opt.seed);
  std::vector<double> setup_s, all_ms, cold_ms, warm_ms;
  const auto start = Clock::now();
  for (int epoch = 0; epoch < kMinEpochs || seconds_since(start) < opt.seconds; ++epoch) {
    // Set-up: store open, server bind and client handshake.
    std::filesystem::remove(store_path(epoch));
    const auto t0 = Clock::now();
    Daemon daemon(epoch, std::make_shared<svc::DiskResultStore>(store_path(epoch)));
    setup_s.push_back(seconds_since(t0));

    std::vector<Asked> asked;
    std::vector<Sent> sent;
    for (int b = 0; b < kBlocksPerEpoch; ++b) {
      send_block(daemon.client(), stream, asked, sent, out.tally);
      if (epoch >= kMinEpochs && seconds_since(start) >= opt.seconds) break;
    }
    for (const Sent& s : sent) {
      if (s.ms == 0.0) continue;  // failed request
      all_ms.push_back(s.ms);
      (s.cold ? cold_ms : warm_ms).push_back(s.ms);
    }
    std::filesystem::remove(store_path(epoch));
  }

  double total_ms = 0.0;
  for (const double ms : all_ms) total_ms += ms;
  const double requests_per_s = 1e3 * static_cast<double>(all_ms.size()) / total_ms;
  out.metrics["setup_s"] = {median(setup_s), "s"};
  out.metrics["p50_ms"] = {median(all_ms), "ms"};
  out.metrics["rate_per_s"] = {requests_per_s, "1/s"};
  out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out.lines.push_back(report_line("setup_s", median(setup_s), "s", setup_s.size()));
  out.lines.push_back(report_line("request_p50_ms", median(all_ms), "ms", all_ms.size()));
  percentile_line(out.lines, "cold_p50_ms", cold_ms, 0.5);
  percentile_line(out.lines, "cold_p95_ms", cold_ms, 0.95);
  percentile_line(out.lines, "warm_p50_ms", warm_ms, 0.5);
  percentile_line(out.lines, "warm_p99_ms", warm_ms, 0.99);
  out.lines.push_back(report_line("requests_per_s", requests_per_s, "1/s", all_ms.size()));
  return out;
}

SliceResult slice_service(const RunOptions& opt, bool traced) {
  SliceResult out;
  Tracer& tracer = Tracer::get();
  const int serial = traced ? 1001 : 1000;
  std::vector<double> open_ms;
  for (int r = 0; traced && r < 3; ++r) {
    const std::string path = store_path(serial + 10 * (r + 1));
    std::filesystem::remove(path);
    const auto t0 = Clock::now();
    { svc::DiskResultStore probe(path); }
    open_ms.push_back(1e3 * seconds_since(t0));
    std::filesystem::remove(path);
  }

  std::filesystem::remove(store_path(serial));
  std::shared_ptr<core::ResultStore> disk =
      std::make_shared<svc::DiskResultStore>(store_path(serial));
  auto timed = std::make_shared<TimedStore>(disk);
  SpecStream stream(opt.seed);
  std::vector<Asked> asked;
  std::vector<Sent> sent;
  std::uint64_t engines = 0;
  std::vector<Span> spans;
  {
    Daemon daemon(serial, traced ? std::shared_ptr<core::ResultStore>(timed) : disk);
    const std::size_t mark = tracer.size();
    tracer.set_enabled(traced);
    for (int b = 0; b < kSliceBlocks; ++b) {
      send_block(daemon.client(), stream, asked, sent, out.tally);
    }
    tracer.set_enabled(false);
    spans = tracer.since(mark);
    engines = daemon.server().engine_count();
  }
  std::filesystem::remove(store_path(serial));
  for (const Sent& s : sent) out.unit_wall_s += 1e-3 * s.ms;
  if (!traced) return out;

  // Service overhead: warm request latency minus the in-process engine time
  // for the same (warm) request.
  std::vector<double> warm_ms, inproc_ms;
  std::uint64_t probes = 0, response_bytes = 0;
  std::vector<svc::PointMsg> points;
  for (const Sent& s : sent) {
    if (s.cold) {
      probes += static_cast<std::uint64_t>(s.outcome.sweep.probes);
    } else {
      warm_ms.push_back(s.ms);
      const auto t0 = Clock::now();
      solve_in_process(*asked[s.asked].twin);
      inproc_ms.push_back(1e3 * seconds_since(t0));
    }
    for (std::size_t i = 0; i < s.outcome.points.size(); ++i) {
      points.push_back({s.outcome.begin.id, i, s.outcome.points[i]});
    }
  }

  // Protocol codec on the stream's own results.
  std::vector<std::string> lines;
  const auto e0 = Clock::now();
  for (int pass = 0; pass < kCodecPasses; ++pass) {
    lines.clear();
    for (const auto& p : points) lines.push_back(svc::format_point(p));
  }
  const double encode_s = seconds_since(e0);
  for (const auto& line : lines) response_bytes += line.size() + 1;
  const auto d0 = Clock::now();
  std::size_t decoded = 0;
  for (int pass = 0; pass < kCodecPasses; ++pass) {
    for (const auto& line : lines) {
      svc::PointMsg msg;
      decoded += svc::parse_point(line, &msg) ? 1 : 0;
    }
  }
  const double decode_s = seconds_since(d0);
  if (decoded != lines.size() * kCodecPasses) {
    out.tally.fail("service-mixed: a POINT line failed to decode");
  }

  // Fixed-point iterations are exact only in a serial ascending replay
  // (parallel solves warm-start from whichever neighbour finished first).
  std::uint64_t replay_iters = 0, replay_ns = 0;
  for (const Asked& a : asked) {
    auto replay_store = std::make_shared<TimedStore>(std::make_shared<core::MemoryResultStore>());
    core::SweepEngine engine(a.spec, replay_store);
    engine.saturation_rate();
    for (const double lambda : engine.lambda_sweep(kPoints, 0.1, 0.95)) {
      engine.model_point(lambda);
    }
    const TimedStore::Counters rc = replay_store->counters();
    replay_iters += rc.solve_iterations;
    replay_ns += rc.solve_ns;
  }

  const TimedStore::Counters c = timed->counters();
  const auto self = self_ms_by_layer(spans);
  for (const char* layer : {"service", "core", "model"}) {
    const auto it = self.find(layer);
    out.metrics[std::string("self_ms.service.") + layer] = {
        it == self.end() ? 0.0 : it->second, "ms"};
  }
  const double per_point = static_cast<double>(points.size()) * kCodecPasses;
  out.metrics["core.saturation_ms"] = {
      1e-6 * static_cast<double>(c.saturation_ns) / static_cast<double>(c.saturations), "ms"};
  out.metrics["core.store_load_us"] = {
      1e-3 * static_cast<double>(c.load_ns) / static_cast<double>(c.loads), "us"};
  out.metrics["core.store_hit_ratio"] = {
      static_cast<double>(c.hits) / static_cast<double>(c.loads), "ratio"};
  out.metrics["model.solve_ms"] = {
      1e-6 * static_cast<double>(c.solve_ns) / static_cast<double>(c.solves), "ms"};
  out.metrics["model.us_per_iter"] = {
      1e-3 * static_cast<double>(replay_ns) / static_cast<double>(replay_iters), "us"};
  out.metrics["service.store_open_ms"] = {median(open_ms), "ms"};
  out.metrics["service.store_append_us"] = {
      1e-3 * static_cast<double>(c.append_ns) / static_cast<double>(c.appends), "us"};
  out.metrics["service.overhead_ms"] = {median(warm_ms) - median(inproc_ms), "ms"};
  out.metrics["service.encode_us_per_point"] = {1e6 * encode_s / per_point, "us"};
  out.metrics["service.decode_us_per_point"] = {1e6 * decode_s / per_point, "us"};
  add_exact(out, "core.saturation_probes", probes, "count");
  add_exact(out, "model.solves", c.solves, "count");
  add_exact(out, "model.fixed_point_iters", replay_iters, "count");
  add_exact(out, "service.response_bytes", response_bytes, "bytes");
  add_exact(out, "service.engines", engines, "count");
  return out;
}

}  // namespace perfbench
