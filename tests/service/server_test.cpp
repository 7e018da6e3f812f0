// Daemon end-to-end tests over a real Unix socket: a Server running on a
// background thread, the library Client for well-formed traffic, and a raw
// socket for malformed frames (the structured-ERROR satellite).
#include "service/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_engine.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"

namespace kncube::service {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

core::ScenarioSpec quick_spec() {
  core::ScenarioSpec spec;
  spec.torus().k = 8;
  spec.message_length = 8;
  spec.hotspot().fraction = 0.3;
  spec.target_messages = 500;
  spec.warmup_cycles = 2000;
  spec.max_cycles = 300000;
  return spec;
}

/// Bare-socket peer for sending frames the Client cannot produce.
class RawConnection {
 public:
  explicit RawConnection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ADD_FAILURE() << "raw connect failed";
    }
    read_line();  // consume the hello
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_line(const std::string& line) {
    const std::string out = line + "\n";
    ASSERT_EQ(::send(fd_, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
  }

  /// Sends `bytes` verbatim, with no newline added.
  void send_bytes(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed after " << sent << " bytes";
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Makes a read that waits longer than `timeout` fail instead of block.
  void set_receive_timeout(std::chrono::seconds timeout) {
    const timeval tv{static_cast<time_t>(timeout.count()), 0};
    ASSERT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  }

  /// Waits up to `timeout`, reading nothing, for the peer to shut the
  /// connection down.
  bool wait_for_hangup(std::chrono::seconds timeout) {
    pollfd pfd{fd_, POLLRDHUP, 0};
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(timeout);
    return ::poll(&pfd, 1, static_cast<int>(ms.count())) == 1 &&
           (pfd.revents & (POLLRDHUP | POLLHUP)) != 0;
  }

  /// Everything the peer sent that read_line has not returned, up to EOF.
  std::string read_to_eof() {
    std::string all = std::move(buffer_);
    buffer_.clear();
    char chunk[4096];
    for (ssize_t n; (n = ::recv(fd_, chunk, sizeof(chunk), 0)) > 0;) {
      all.append(chunk, static_cast<std::size_t>(n));
    }
    return all;
  }

  /// True when everything buffered is consumed and the peer closed.
  bool at_eof() {
    char byte = 0;
    return buffer_.empty() && ::recv(fd_, &byte, 1, 0) == 0;
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ =
        std::string("server_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".sock";
    std::filesystem::remove(socket_path_);
    ServerOptions options;
    options.socket_path = socket_path_;
    server_ = std::make_unique<Server>(std::move(options));
    server_->bind();
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->stop();
    thread_.join();
    EXPECT_FALSE(std::filesystem::exists(socket_path_))
        << "drained shutdown must remove the socket file";
    server_.reset();
  }

  std::string socket_path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServerTest, PingAndServerWideStats) {
  Client client(socket_path_);
  client.ping();
  const StatsMsg stats = client.server_stats();
  EXPECT_EQ(stats.id, "-");
  EXPECT_EQ(stats.engines, 0u);
  EXPECT_EQ(stats.store_kind, "memory");
}

TEST_F(ServerTest, ExplicitLambdasMatchALocalEngineBitwise) {
  // The daemon solves the points concurrently and the local engine one by
  // one; every solve starts from the zero-load state, so even the damped
  // iteration count of the inclusive basis must agree.
  core::ScenarioSpec inclusive = quick_spec();
  inclusive.busy_basis = model::ServiceBasis::kInclusive;
  const std::vector<double> lambdas = {2e-4, 3e-4};

  Client client(socket_path_);
  for (const core::ScenarioSpec& spec : {quick_spec(), inclusive}) {
    SCOPED_TRACE(core::format_scenario(spec));
    Request params;
    params.lambdas = lambdas;
    params.with_sim = false;
    const Client::SweepOutcome outcome = client.run(spec, params);

    EXPECT_EQ(outcome.begin.spec_key, spec.key());
    EXPECT_FALSE(outcome.begin.model_name.empty());
    ASSERT_EQ(outcome.points.size(), 2u);

    core::SweepEngine local(spec);
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      ASSERT_TRUE(outcome.points[i].has_model);
      EXPECT_FALSE(outcome.points[i].has_sim);
      EXPECT_EQ(bits(outcome.points[i].lambda), bits(lambdas[i]));
      const model::ModelResult reference = local.model_point(lambdas[i]);
      EXPECT_EQ(bits(outcome.points[i].model.latency), bits(reference.latency));
      EXPECT_EQ(outcome.points[i].model.iterations, reference.iterations);
    }
    EXPECT_EQ(outcome.stats.stats.model_solves, 2u);
  }
}

TEST_F(ServerTest, RepeatedRequestsAnswerFromTheStore) {
  const core::ScenarioSpec spec = quick_spec();
  Client client(socket_path_);
  Request params;
  params.lambdas = {2e-4};
  params.with_sim = false;

  const auto first = client.run(spec, params);
  EXPECT_EQ(first.stats.stats.model_solves, 1u);
  EXPECT_EQ(first.stats.stats.model_hits, 0u);

  // Engine-cumulative stats: the repeat adds a hit, not a solve.
  const auto second = client.run(spec, params);
  EXPECT_EQ(second.stats.stats.model_solves, 1u);
  EXPECT_EQ(second.stats.stats.model_hits, 1u);
  ASSERT_EQ(second.points.size(), 1u);
  EXPECT_EQ(bits(second.points[0].model.latency),
            bits(first.points[0].model.latency));

  // One engine serves both connections of the same spec.
  EXPECT_EQ(server_->engine_count(), 1u);
  EXPECT_EQ(server_->requests_served(), 2u);
}

TEST_F(ServerTest, SweepRequestStreamsSaturationAndOrderedPoints) {
  Client client(socket_path_);
  Request params;
  params.points = 3;
  params.lo = 0.2;
  params.hi = 0.8;
  params.with_sim = false;
  const Client::SweepOutcome outcome = client.run(quick_spec(), params);

  ASSERT_TRUE(outcome.has_sweep);
  EXPECT_GT(outcome.sweep.saturation, 0.0);
  EXPECT_GT(outcome.sweep.probes, 0);
  ASSERT_EQ(outcome.points.size(), 3u);
  for (std::size_t i = 1; i < outcome.points.size(); ++i) {
    EXPECT_GT(outcome.points[i].lambda, outcome.points[i - 1].lambda);
  }
}

TEST_F(ServerTest, SweepCountsASaturationHitOnlyForAStoredSearch) {
  Client client(socket_path_);
  Request params;
  params.points = 3;
  params.with_sim = false;
  const Client::SweepOutcome cold = client.run(quick_spec(), params);
  EXPECT_EQ(cold.stats.stats.saturation_entries, 1u);
  EXPECT_EQ(cold.stats.stats.saturation_hits, 0u);
  const Client::SweepOutcome warm = client.run(quick_spec(), params);
  EXPECT_EQ(warm.stats.stats.saturation_hits, 1u);
  EXPECT_EQ(bits(warm.sweep.saturation), bits(cold.sweep.saturation));
}

TEST_F(ServerTest, AClientThatNeverReadsStallsOnlyItsOwnConnection) {
  // Client A asks for 5,000 points and never reads: its response (over
  // 1 MB) outgrows the socket buffers, so its connection's send blocks.
  constexpr std::size_t kStalledPoints = 5000;
  RawConnection a(socket_path_);
  std::string frame = "REQUEST a\nrequest.sim=0\nrequest.lambdas=";
  for (std::size_t i = 0; i < kStalledPoints; ++i) {
    if (i > 0) frame += ',';
    frame += format_bits(1e-5 * static_cast<double>(1 + i % 50));
  }
  frame += "\nEND\n";
  a.send_bytes(frame);

  // Every one of A's points is answered: no pool lane waits on A's socket.
  const auto answered = [this] {
    const core::CacheStats s = server_->stats();
    return s.model_hits + s.model_solves + s.inflight_waits;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (answered() < kStalledPoints &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(answered(), kStalledPoints);

  // Client B still gets PONG and a complete cold sweep, in index order.
  RawConnection b(socket_path_);
  b.set_receive_timeout(std::chrono::seconds(30));
  b.send_line("PING");
  EXPECT_EQ(b.read_line(), "PONG");
  core::ScenarioSpec spec = quick_spec();
  spec.hotspot().fraction = 0.2;
  Request params;
  params.spec_text = core::format_scenario(spec);
  params.points = 64;
  params.with_sim = false;
  std::string request = "REQUEST b\n";
  for (const std::string& line : format_request_body(params)) {
    request += line;
    request += '\n';
  }
  b.send_bytes(request + "END\n");
  BeginMsg begin;
  ASSERT_TRUE(parse_begin(b.read_line(), &begin));
  EXPECT_EQ(begin.spec_key, spec.key());
  SweepMsg sweep;
  ASSERT_TRUE(parse_sweep(b.read_line(), &sweep));
  for (std::uint64_t i = 0; i < 64; ++i) {
    PointMsg point;
    ASSERT_TRUE(parse_point(b.read_line(), &point)) << "point " << i;
    EXPECT_EQ(point.index, i);
    EXPECT_TRUE(point.point.has_model);
  }
  StatsMsg stats;
  ASSERT_TRUE(parse_stats(b.read_line(), &stats));
  DoneMsg done;
  ASSERT_TRUE(parse_done(b.read_line(), &done));
  EXPECT_EQ(done.points, 64u);

  // After kSendTimeout without a byte accepted, the daemon drops A: A reads
  // what reached its socket buffer, a response cut short of DONE, then EOF.
  ASSERT_TRUE(a.wait_for_hangup(std::chrono::seconds(60)));
  const std::string response = a.read_to_eof();
  EXPECT_TRUE(a.at_eof());
  EXPECT_EQ(response.rfind("BEGIN id=a ", 0), 0u);
  EXPECT_EQ(response.find("DONE id=a"), std::string::npos);
  std::size_t points = 0;
  for (std::size_t at = response.find("\nPOINT id=a "); at != std::string::npos;
       at = response.find("\nPOINT id=a ", at + 1)) {
    ++points;
  }
  EXPECT_GT(points, 0u);
  EXPECT_LT(points, kStalledPoints);
}

TEST_F(ServerTest, SimOnlySpecWithoutAnchorGetsAStructuredError) {
  core::ScenarioSpec spec = quick_spec();
  spec.torus().n = 3;  // no analytical model for n = 3 tori
  Client client(socket_path_);
  Request params;
  params.with_sim = false;
  try {
    client.run(spec, params);
    FAIL() << "expected a server error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("request.max_rate"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ServerTest, MalformedFramesGetLineAnchoredErrorsWithoutDisconnect) {
  RawConnection raw(socket_path_);

  // Malformed spec value: parse_scenario's line anchor passes through, and
  // the request.* line above it still counts (blanked, not removed).
  raw.send_line("REQUEST r1");
  raw.send_line("request.sim=0");
  raw.send_line("topology.kind=torus");
  raw.send_line("topology.k=potato");
  raw.send_line("END");
  ErrorMsg err;
  ASSERT_TRUE(parse_error(raw.read_line(), &err));
  EXPECT_EQ(err.id, "r1");
  EXPECT_NE(err.message.find("line 3"), std::string::npos) << err.message;

  // Malformed request parameter, anchored to its own body line.
  raw.send_line("REQUEST r2");
  raw.send_line("request.points=zero");
  raw.send_line("END");
  ASSERT_TRUE(parse_error(raw.read_line(), &err));
  EXPECT_EQ(err.id, "r2");
  EXPECT_NE(err.message.find("line 1"), std::string::npos) << err.message;

  // Unknown commands and bare REQUEST lines answer with untied errors.
  raw.send_line("BOGUS");
  ASSERT_TRUE(parse_error(raw.read_line(), &err));
  EXPECT_EQ(err.id, "-");
  EXPECT_NE(err.message.find("unknown command"), std::string::npos);
  raw.send_line("REQUEST");
  ASSERT_TRUE(parse_error(raw.read_line(), &err));
  EXPECT_NE(err.message.find("id"), std::string::npos);

  // The connection survived all of it: a well-formed request still works.
  raw.send_line("PING");
  EXPECT_EQ(raw.read_line(), "PONG");
}

TEST_F(ServerTest, NonFiniteSpecValueGetsAnErrorAndTheDaemonSurvives) {
  // A NaN hot fraction used to pass validation and abort the daemon inside
  // the model's traffic-rate assertion.
  RawConnection raw(socket_path_);
  raw.send_line("REQUEST r1");
  raw.send_line("request.sim=0");
  raw.send_line("traffic.hot_fraction=nan");
  raw.send_line("END");
  ErrorMsg err;
  ASSERT_TRUE(parse_error(raw.read_line(), &err));
  EXPECT_EQ(err.id, "r1");
  EXPECT_NE(err.message.find("line 2"), std::string::npos) << err.message;

  raw.send_line("PING");
  EXPECT_EQ(raw.read_line(), "PONG");
}

TEST_F(ServerTest, UnbuildableNetworkGetsAnErrorAndTheDaemonSurvives) {
  // 20000^2 nodes exceed what a network can address. The sim-only spec used
  // to pass validation, answer BEGIN and abort the daemon when the
  // simulator built its topology.
  RawConnection raw(socket_path_);
  raw.send_line("REQUEST r1");
  raw.send_line("topology.k=20000");
  raw.send_line("traffic.kind=bit_complement");
  raw.send_line("request.sim=1");
  raw.send_line("request.lambdas=0.001");
  raw.send_line("END");
  ErrorMsg err;
  ASSERT_TRUE(parse_error(raw.read_line(), &err));
  EXPECT_EQ(err.id, "r1");

  raw.send_line("PING");
  EXPECT_EQ(raw.read_line(), "PONG");
}

TEST_F(ServerTest, OverlongLineIsAnErrorAndClosesOnlyThatConnection) {
  {
    RawConnection raw(socket_path_);
    raw.set_receive_timeout(std::chrono::seconds(5));
    raw.send_bytes(std::string(kMaxLineBytes + 1, 'x'));  // no newline
    EXPECT_EQ(raw.read_line(), format_error("-", "line too long"));
    EXPECT_TRUE(raw.at_eof());
  }
  RawConnection fresh(socket_path_);
  fresh.set_receive_timeout(std::chrono::seconds(5));
  fresh.send_line("PING");
  EXPECT_EQ(fresh.read_line(), "PONG");
}

TEST_F(ServerTest, ClientSurvivesInterruptedSyscalls) {
  // A no-op handler installed *without* SA_RESTART makes every blocking
  // syscall on this thread fail with EINTR when the signal lands — the
  // Client's connect/send/recv paths must all retry instead of erroring out
  // (connect(2) in particular cannot be re-called after EINTR; the Client
  // completes it via poll + SO_ERROR).
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  std::atomic<bool> storming{true};
  const pthread_t victim = ::pthread_self();
  std::thread storm([&storming, victim] {
    while (storming.load(std::memory_order_relaxed)) {
      ::pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  // Fresh connections hammer the connect + greeting-recv path; the sweep at
  // the end exercises a long multi-line streaming read under the same storm.
  const core::ScenarioSpec spec = quick_spec();
  for (int i = 0; i < 25; ++i) {
    Client client(socket_path_);
    client.ping();
  }
  {
    Client client(socket_path_);
    Request params;
    params.lambdas = {2e-4, 3e-4, 4e-4};
    params.with_sim = false;
    const Client::SweepOutcome outcome = client.run(spec, params);
    ASSERT_EQ(outcome.points.size(), 3u);
    for (const auto& pt : outcome.points) EXPECT_TRUE(pt.has_model);
  }

  storming.store(false, std::memory_order_relaxed);
  storm.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
}

TEST_F(ServerTest, StaleSocketFileIsReplacedOnBind) {
  // A dead daemon leaves its socket file behind; a new bind must reclaim
  // the path instead of failing. (The fixture's server owns socket_path_,
  // so exercise a second path.)
  const std::string stale = socket_path_ + ".stale";
  std::filesystem::remove(stale);
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, stale.c_str(), stale.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);  // closes without unlink: the file is now stale
  }
  ASSERT_TRUE(std::filesystem::exists(stale));

  ServerOptions options;
  options.socket_path = stale;
  Server second(std::move(options));
  EXPECT_NO_THROW(second.bind());
  std::thread t([&second] { second.run(); });
  {
    Client client(stale);
    client.ping();
  }
  second.stop();
  t.join();
  EXPECT_FALSE(std::filesystem::exists(stale));
}

TEST_F(ServerTest, BindRefusesALiveDaemonsSocket) {
  ServerOptions options;
  options.socket_path = socket_path_;  // the fixture's daemon is listening
  Server second(std::move(options));
  EXPECT_THROW(second.bind(), std::runtime_error);
  // The live daemon is unharmed.
  Client client(socket_path_);
  client.ping();
}

}  // namespace
}  // namespace kncube::service
