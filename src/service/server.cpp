#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "service/protocol.hpp"
#include "service/store_version.hpp"

namespace kncube::service {

namespace {

/// Upper bound on one request frame — a spec is ~40 lines; anything huge is
/// a runaway or hostile client, and the server errors out instead of
/// buffering it.
constexpr std::size_t kMaxBodyLines = 4096;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long (" +
                             std::to_string(path.size()) + " > " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  store_ = options_.store ? options_.store
                          : std::make_shared<core::MemoryResultStore>();
  if (::pipe(stop_pipe_) != 0) throw_errno("Server: pipe");
}

Server::~Server() {
  stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
  // Joining here covers a Server destroyed without run() having drained
  // (e.g. bind() threw after connections — impossible — or tests).
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
}

void Server::bind() {
  const sockaddr_un addr = socket_address(options_.socket_path);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("Server: socket");
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno == EADDRINUSE) {
      // A dead daemon leaves its socket file behind. If nobody answers a
      // connect, the file is stale — remove and retry once.
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool live =
          probe >= 0 && ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                                  sizeof(addr)) == 0;
      if (probe >= 0) ::close(probe);
      if (live) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("Server: '" + options_.socket_path +
                                 "' already has a live daemon");
      }
      ::unlink(options_.socket_path.c_str());
      if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        throw_errno("Server: bind '" + options_.socket_path + "'");
      }
    } else {
      throw_errno("Server: bind '" + options_.socket_path + "'");
    }
  }
  if (::listen(listen_fd_, 64) != 0) throw_errno("Server: listen");
}

void Server::run() {
  if (listen_fd_ < 0) throw std::logic_error("Server::run before bind()");
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("Server: poll");
    }
    if (fds[1].revents != 0) break;  // stop() fired
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno("Server: accept");
    }
    const timeval send_timeout{static_cast<time_t>(kSendTimeout.count()), 0};
    if (::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                     sizeof(send_timeout)) != 0) {
      ::close(client);  // a connection without the bound is not served
      continue;
    }
    reap_finished_connections();
    auto conn = std::make_unique<Connection>();
    conn->fd = client;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { connection_loop(raw); });
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(std::move(conn));
  }

  // Drain: no new connections, unblock every reader, join, flush.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& conn : connections_) {
      if (!conn->finished.load()) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  connections_.clear();
  store_->flush();
}

void Server::stop() noexcept {
  stopping_.store(true, std::memory_order_relaxed);
  // Async-signal-safe wake-up for the poll loop.
  const char byte = 'x';
  [[maybe_unused]] const ssize_t r = ::write(stop_pipe_[1], &byte, 1);
}

core::CacheStats Server::stats() const {
  core::CacheStats total;
  const core::StoreSizes sizes = store_->sizes();
  total.model_entries = sizes.model;
  total.sim_entries = sizes.sim;
  total.saturation_entries = sizes.saturation;
  std::lock_guard<std::mutex> lock(engines_mutex_);
  for (const auto& [key, engine] : engines_) {
    const core::CacheStats s = engine->cache_stats();
    total.model_hits += s.model_hits;
    total.sim_hits += s.sim_hits;
    total.saturation_hits += s.saturation_hits;
    total.model_solves += s.model_solves;
    total.sim_runs += s.sim_runs;
    total.inflight_waits += s.inflight_waits;
  }
  return total;
}

std::size_t Server::engine_count() const {
  std::lock_guard<std::mutex> lock(engines_mutex_);
  return engines_.size();
}

std::shared_ptr<core::SweepEngine> Server::engine_for(
    const core::ScenarioSpec& spec) {
  const std::uint64_t key = spec.key();
  std::lock_guard<std::mutex> lock(engines_mutex_);
  auto it = engines_.find(key);
  if (it != engines_.end()) return it->second;
  auto engine = std::make_shared<core::SweepEngine>(spec, store_);
  engines_.emplace(key, engine);
  return engine;
}

void Server::send_all(Connection* conn, const std::string& bytes) {
  if (conn->dead) return;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(conn->fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // The client is gone, or accepted nothing for kSendTimeout. Shut the
      // socket down: the connection loop's next recv returns 0, so its
      // thread exits and frees what it held.
      conn->dead = true;
      ::shutdown(conn->fd, SHUT_RDWR);
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Server::connection_loop(Connection* conn) {
  send_line(conn, format_hello(store_version()));

  std::string buffer;
  bool in_frame = false;
  std::string frame_id;
  std::vector<std::string> body;
  char chunk[4096];

  const auto process_line = [&](const std::string& line) {
    if (in_frame) {
      if (line == "END") {
        in_frame = false;
        handle_request(conn, frame_id, body);
        body.clear();
        return true;
      }
      if (body.size() >= kMaxBodyLines) {
        send_line(conn, format_error(frame_id, "request body too large"));
        return false;  // protocol out of sync; drop the connection
      }
      body.push_back(line);
      return true;
    }
    if (line.empty()) return true;
    if (line == "PING") {
      send_line(conn, "PONG");
      return true;
    }
    if (line == "STATS") {
      StatsMsg msg;
      msg.id = "-";
      msg.stats = stats();
      msg.engines = engine_count();
      msg.store_kind = store_->kind();
      send_line(conn, format_stats(msg));
      return true;
    }
    if (line.rfind("REQUEST", 0) == 0) {
      const auto space = line.find(' ');
      frame_id = space == std::string::npos ? "" : line.substr(space + 1);
      if (frame_id.empty() ||
          frame_id.find_first_of(" \t") != std::string::npos) {
        send_line(conn, format_error("-", "REQUEST needs an id token"));
        return true;
      }
      in_frame = true;
      body.clear();
      return true;
    }
    send_line(conn, format_error("-", "unknown command '" + line + "'"));
    return true;
  };

  // `buffer` holds the unterminated tail of the stream, which has no '\n',
  // so each recv scans only the bytes it appended.
  bool alive = true;
  while (alive) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or shutdown()
    std::size_t start = 0;
    std::size_t scan = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(n));
    for (std::size_t nl = buffer.find('\n', scan); alive && nl != std::string::npos;
         nl = buffer.find('\n', scan)) {
      if (nl - start > kMaxLineBytes) break;
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = scan = nl + 1;
      alive = process_line(line) && !conn->dead;
    }
    if (alive && buffer.size() - start > kMaxLineBytes) {
      // Too long to be a line the protocol sends: stop buffering it.
      send_line(conn, format_error("-", "line too long"));
      alive = false;
    }
    buffer.erase(0, start);
  }
  ::close(conn->fd);
  conn->finished.store(true, std::memory_order_release);
}

void Server::handle_request(Connection* conn, const std::string& id,
                            const std::vector<std::string>& body) {
  // The whole response goes out in one send loop: the lines built before a
  // failure, then its ERROR line.
  std::string response;
  const auto add_line = [&response](const std::string& line) {
    response += line;
    response += '\n';
  };
  try {
    const Request req = parse_request_body(id, body);
    core::ScenarioSpec spec = core::parse_scenario(req.spec_text);
    spec.validate();
    const std::shared_ptr<core::SweepEngine> engine = engine_for(spec);

    BeginMsg begin;
    begin.id = id;
    begin.spec_key = engine->spec_key();
    if (engine->has_model()) {
      begin.model_name = engine->analytical_model().name();
    } else {
      begin.reason = engine->sim_only_reason();
    }
    add_line(format_begin(begin));

    std::vector<double> lambdas = req.lambdas;
    if (lambdas.empty()) {
      if (!(req.points >= 2) || !(req.lo > 0.0) || !(req.hi > req.lo)) {
        throw std::invalid_argument(
            "sweep needs request.points >= 2 and 0 < request.lo < request.hi");
      }
      if (engine->has_model()) {
        const core::SaturationResult sat = engine->saturation_rate();
        add_line(format_sweep(SweepMsg{id, sat.rate, sat.probes}));
        lambdas = core::sweep_rates(sat, req.points, req.lo, req.hi);
      } else if (req.max_rate > 0.0) {
        lambdas = core::sweep_rates({req.max_rate}, req.points, req.lo, req.hi);
      } else {
        throw std::invalid_argument(
            "sim-only scenario (" + engine->sim_only_reason() +
            ") needs request.max_rate or request.lambdas to anchor the sweep");
      }
    }

    // Store hits are answered on this thread, misses on the pool; the points
    // come back in index order.
    const std::vector<core::PointResult> points =
        engine->run(lambdas, req.with_sim);
    const std::size_t point_bytes =
        96 + id.size() + 2 * sizeof(model::ModelResult) +
        (req.with_sim ? 2 * sizeof(sim::SimResult) : 0);
    response.reserve(response.size() + points.size() * point_bytes + 512);
    for (std::size_t i = 0; i < points.size(); ++i) {
      add_line(format_point(PointMsg{id, i, points[i]}));
    }

    StatsMsg stats_msg;
    stats_msg.id = id;
    stats_msg.stats = engine->cache_stats();
    add_line(format_stats(stats_msg));
    // Count before DONE goes out: a client that has seen DONE must see the
    // request in the counter.
    ++requests_served_;
    add_line(format_done(DoneMsg{id, points.size()}));
    if (options_.verbose) {
      std::ostringstream line;
      line << "[kncube_serve] id=" << id << " key=" << std::hex
           << begin.spec_key << std::dec << " points=" << points.size()
           << " model=" << (begin.model_name.empty() ? "-" : begin.model_name)
           << " " << core::format_cache_stats(stats_msg.stats) << '\n';
      // One write per line, so concurrent connections never interleave.
      const std::string text = line.str();
      [[maybe_unused]] const ssize_t n =
          ::write(STDERR_FILENO, text.data(), text.size());
    }
  } catch (const std::exception& e) {
    add_line(format_error(id, e.what()));
  }
  send_all(conn, response);
}

void Server::reap_finished_connections() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace kncube::service
