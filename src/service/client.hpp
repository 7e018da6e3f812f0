// Client for the capacity-planning daemon (service/server.hpp): connects
// over the Unix socket, speaks the newline protocol (service/protocol.hpp)
// and rebuilds core::PointResult values bit-identical to what the server
// computed. kncube_run's --connect mode is a thin wrapper over this.
//
// The constructor performs the handshake and refuses a server whose store
// version differs from this binary's: the wire carries raw result-struct
// bytes, so client and server must be built from the same tree — and a
// version mismatch also means the two builds would not even agree on what
// the cached numbers should be.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "service/protocol.hpp"

namespace kncube::service {

class Client {
 public:
  /// Connects and validates the hello. Throws std::runtime_error on
  /// connect/handshake/version failure.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  const Hello& hello() const noexcept { return hello_; }

  /// PING round trip; throws on protocol breakage.
  void ping();

  /// Server-wide STATS command.
  StatsMsg server_stats();

  struct SweepOutcome {
    BeginMsg begin;
    bool has_sweep = false;
    SweepMsg sweep;
    /// In index order (the request's lambda order), as the server sends
    /// them.
    std::vector<core::PointResult> points;
    StatsMsg stats;
  };

  /// Runs one request: `params` carries the lambdas-or-sweep controls and
  /// sim toggle (its id/spec_text are filled in here). A server-side ERROR
  /// throws std::runtime_error carrying the server's message.
  SweepOutcome run(const core::ScenarioSpec& spec, Request params);

 private:
  std::string read_line();
  /// Sends `bytes` (whole lines, each ending in '\n') in as few send() calls
  /// as the socket allows.
  void send_all(const std::string& bytes);
  void send_line(const std::string& line) { send_all(line + '\n'); }

  int fd_ = -1;
  /// Received bytes; the next line starts at start_, and no '\n' lies in
  /// [start_, scan_).
  std::string buffer_;
  std::size_t start_ = 0;
  std::size_t scan_ = 0;
  Hello hello_;
  std::uint64_t next_id_ = 1;
};

}  // namespace kncube::service
