// kncube_serve: the capacity-planning daemon (DESIGN.md §11). Listens on a
// Unix domain socket and answers ScenarioSpec sweep requests from a
// persistent disk-backed result store, one write per response.
//
// Usage:
//   kncube_serve --socket /tmp/kncube.sock [--store results.kncs] [--verbose]
//
//   --socket path   Unix socket to listen on (required)
//   --store path    disk-backed result store; omitted = in-memory only
//   --verbose       write one `[kncube_serve] id=...` line per answered
//                   request to stderr
//
// SIGTERM/SIGINT shut the daemon down gracefully: in-flight requests drain,
// the store flushes, and the socket file is removed. Point kncube_run at it
// with `kncube_run --connect /tmp/kncube.sock ...`.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/result_store.hpp"
#include "service/disk_store.hpp"
#include "service/server.hpp"
#include "service/store_version.hpp"
#include "util/cli.hpp"

namespace {

kncube::service::Server* g_server = nullptr;

// Only the async-signal-safe stop() (a self-pipe write) happens here; the
// actual drain runs on the run() thread.
void handle_signal(int) {
  if (g_server) g_server->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kncube;

  util::Args args(argc, argv);
  const auto unknown = args.unknown_keys({"socket", "store", "verbose"});
  if (!unknown.empty()) {
    std::cerr << "kncube_serve: unknown option --" << unknown.front() << "\n";
    return EXIT_FAILURE;
  }
  const std::string socket_path = args.get_string("socket", "");
  if (socket_path.empty()) {
    std::cerr << "kncube_serve: --socket <path> is required\n";
    return EXIT_FAILURE;
  }
  const std::string store_path = args.get_string("store", "");
  const bool verbose = args.get_bool("verbose", false);

  try {
    service::ServerOptions options;
    options.socket_path = socket_path;
    options.verbose = verbose;
    if (!store_path.empty()) {
      auto disk = std::make_shared<service::DiskResultStore>(store_path);
      if (disk->invalidated()) {
        std::cout << "store: '" << store_path
                  << "' was invalidated (version/format mismatch or "
                     "unrecoverable corruption); starting fresh\n";
      } else {
        std::cout << "store: '" << store_path << "' loaded "
                  << disk->loaded_records() << " records";
        if (disk->dropped_bytes() > 0) {
          std::cout << " (dropped " << disk->dropped_bytes()
                    << " trailing corrupt/truncated bytes)";
        }
        std::cout << "\n";
      }
      options.store = std::move(disk);
    }

    service::Server server(std::move(options));
    server.bind();
    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);

    std::cout << "kncube_serve: listening on " << socket_path << " (store "
              << server.store()->kind() << ", version 0x" << std::hex
              << service::store_version() << std::dec << ")" << std::endl;
    server.run();
    g_server = nullptr;

    const core::CacheStats stats = server.stats();
    std::cout << "kncube_serve: shut down after " << server.requests_served()
              << " requests; " << core::format_cache_stats(stats) << "\n";
  } catch (const std::exception& e) {
    std::cerr << "kncube_serve: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
