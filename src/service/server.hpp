// The capacity-planning daemon: a Unix-domain-socket server answering
// ScenarioSpec sweep requests from a shared, optionally persistent
// ResultStore.
//
// Architecture (DESIGN.md §11): one accept loop (run()) hands each
// connection to its own reader thread; request *work* — fixed-point solves
// and simulations — is batched onto the global util::ThreadPool by the
// shared SweepEngine instances, so N connections contend for the same
// bounded worker set instead of spawning unbounded compute threads. Engines
// are registered per canonical spec key and all share one ResultStore, so
// concurrent clients asking for the same (spec, lambda) are deduplicated
// in flight by the engine (one solve, everyone gets the bits) and repeated
// questions are answered from the store — across daemon restarts when the
// store is disk-backed.
//
// A request's response — BEGIN, SWEEP, its POINT lines in index order, an
// engine-cumulative STATS line and DONE — is built whole and written by the
// connection's own thread with one send loop, so no pool worker ever writes
// to a socket and a client that stops reading stalls only its own
// connection — for kSendTimeout, after which the connection is dropped. The
// engine answers store hits on the connection thread and
// sends only the misses to the pool. Malformed requests get structured
// ERROR responses (parse_scenario's line-anchored messages pass through
// verbatim) without dropping the connection.
//
// stop() is async-signal-safe (a self-pipe write), so kncube_serve calls it
// straight from its SIGTERM/SIGINT handlers; run() then drains: stops
// accepting, shuts the client sockets, joins the readers, flushes the
// store and removes the socket file.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/result_store.hpp"
#include "core/sweep_engine.hpp"

namespace kncube::service {

/// Longest line a client may send, '\n' excluded: a longer one is answered
/// with the error `line too long` and the connection is closed. The longest
/// legitimate line is a `request.lambdas` list at the `request.points` cap,
/// 100,000 rates of 19 bytes each (`0x` + 16 hex digits + a separator).
inline constexpr std::size_t kMaxLineBytes = std::size_t{4} << 20;

/// How long a response send may wait for a client that accepts no bytes
/// (SO_SNDTIMEO on every connection). A client that stalls this long loses
/// its connection, and the response it held is freed.
inline constexpr std::chrono::seconds kSendTimeout{3};

struct ServerOptions {
  std::string socket_path;
  /// Shared across every engine; null = a fresh in-memory store.
  std::shared_ptr<core::ResultStore> store;
  /// Write one line per answered request to stderr.
  bool verbose = false;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on the socket path (replacing a stale socket file
  /// left by a dead daemon). Throws std::runtime_error on failure.
  void bind();

  /// Blocking accept loop; returns after stop() has drained everything.
  /// Requires bind().
  void run();

  /// Requests shutdown; safe to call from a signal handler or any thread.
  void stop() noexcept;

  const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }
  const std::shared_ptr<core::ResultStore>& store() const noexcept {
    return store_;
  }

  /// Server-wide stats: entry counts from the shared store plus
  /// hit/solve/dedup counters summed over every engine.
  core::CacheStats stats() const;
  std::size_t engine_count() const;
  std::uint64_t requests_served() const noexcept { return requests_served_; }

 private:
  struct Connection {
    int fd = -1;
    /// A send failed or timed out; the connection's thread (its only
    /// writer) has shut the socket down and stops serving it.
    bool dead = false;
    std::atomic<bool> finished{false};
    std::thread thread;
  };

  void connection_loop(Connection* conn);
  void handle_request(Connection* conn, const std::string& id,
                      const std::vector<std::string>& body);
  std::shared_ptr<core::SweepEngine> engine_for(const core::ScenarioSpec& spec);
  /// Writes `bytes` (whole lines) from the connection's thread, its only
  /// writer.
  void send_all(Connection* conn, const std::string& bytes);
  void send_line(Connection* conn, const std::string& line) {
    send_all(conn, line + '\n');
  }
  void reap_finished_connections();

  ServerOptions options_;
  std::shared_ptr<core::ResultStore> store_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};

  mutable std::mutex engines_mutex_;
  std::map<std::uint64_t, std::shared_ptr<core::SweepEngine>> engines_;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> requests_served_{0};
};

}  // namespace kncube::service
