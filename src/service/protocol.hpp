// The capacity-planning service wire protocol: newline-delimited text over
// a Unix domain socket, shared by the daemon (service/server.hpp), the
// client (service/client.hpp) and the protocol unit tests.
//
// On connect the server greets:
//
//   KNCUBE-SERVE <protocol> version=0x<16 hex>        (store version hash)
//
// Client lines:
//
//   PING                        -> PONG
//   STATS                       -> STATS id=- engines=N store=<kind> <k=v...>
//   REQUEST <id>                -> opens a request frame; then
//     <ScenarioSpec key=value lines>                  (core/scenario_spec.hpp
//     request.lambdas=<rate>,<rate>,...                grammar, verbatim)
//     request.points=N request.lo=F request.hi=F      (sweep anchored at the
//     request.max_rate=F                               model's saturation, or
//     request.sim=0|1                                  max_rate when sim-only)
//   END                         -> runs the request
//
// Inside a frame, `request.*` lines are the request parameters and every
// other line is ScenarioSpec text. The request.* lines are *blanked* (not
// removed) from the spec text, so the "line N" positions in
// parse_scenario's errors — which the server returns verbatim in ERROR
// responses — count lines of the frame body exactly as the client sent
// them.
//
// Server response for request <id>, written with one send loop once every
// point is answered (points in index order; store hits are answered on the
// connection thread, misses on the thread pool):
//
//   BEGIN id=<id> key=0x<16 hex> model=<name|-> [reason=<rest of line>]
//   SWEEP id=<id> saturation=<rate bits> probes=N     (model sweeps only)
//   POINT id=<id> index=N lambda=<rate bits> model=<hex|-> sim=<hex|->
//   STATS id=<id> <k=v cache stats>                   (engine-cumulative)
//   DONE id=<id> points=N
//   ERROR id=<id|-> <message>                         (newlines -> "; ")
//
// A request that fails gets the lines built before the failure, then its
// ERROR line.
//
// Numbers are strict (std::from_chars over the whole token): an integer is
// decimal digits, a `0x` field one `0x` and hex digits — no sign, no second
// prefix, nothing left over. Only parse_rate's decimal form, for
// hand-written requests, goes through strtod.
//
// Doubles travel as their IEEE-754 bit pattern (`0x` + 16 hex digits) and
// result structs as hex-encoded raw bytes, so every value a client prints
// is bit-identical to what the server computed — the protocol never
// round-trips through decimal. Struct blobs are only exchanged between
// binaries built from the same tree; the hello's version hash is the
// compatibility check (the client refuses a mismatched server).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "core/result_store.hpp"

namespace kncube::service {

inline constexpr int kProtocolVersion = 1;

// ------------------------------------------------------- value encodings ---

/// `0x` + 16 hex digits of the double's IEEE-754 bit pattern.
std::string format_bits(double value);
/// Accepts the 0x bit form (exact) or a plain decimal double (convenience
/// for hand-written requests).
bool parse_rate(std::string_view token, double* out);

std::string encode_hex(const void* data, std::size_t size);
bool decode_hex(std::string_view hex, void* out, std::size_t size);

template <typename T>
std::string encode_struct(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return encode_hex(&value, sizeof(T));
}

template <typename T>
bool decode_struct(std::string_view hex, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  if (!decode_hex(hex, &value, sizeof(T))) return false;
  std::memcpy(out, &value, sizeof(T));
  return true;
}

// --------------------------------------------------------------- request ---

struct Request {
  std::string id;
  /// ScenarioSpec text (request.* lines blanked in place).
  std::string spec_text;
  /// Explicit operating points; empty means "sweep" via points/lo/hi.
  std::vector<double> lambdas;
  int points = 8;
  double lo = 0.1;
  double hi = 0.95;
  /// Sweep ceiling for sim-only specs (no saturation anchor); 0 = unset.
  double max_rate = 0.0;
  bool with_sim = true;
};

/// Parses a frame body (the lines between `REQUEST <id>` and `END`).
/// Malformed request.* parameters throw std::invalid_argument anchored to
/// the body line ("line N: ..."), matching parse_scenario's convention.
Request parse_request_body(const std::string& id,
                           const std::vector<std::string>& lines);

/// Client side: renders the frame body lines (spec text + request.* lines).
std::vector<std::string> format_request_body(const Request& request);

// -------------------------------------------------------------- messages ---

struct Hello {
  int protocol = 0;
  std::uint64_t version = 0;
};

struct BeginMsg {
  std::string id;
  std::uint64_t spec_key = 0;
  std::string model_name;  ///< empty for sim-only
  std::string reason;      ///< sim-only reason (empty when modeled)
};

struct SweepMsg {
  std::string id;
  double saturation = 0.0;
  int probes = 0;
};

struct PointMsg {
  std::string id;
  std::uint64_t index = 0;
  core::PointResult point;
};

struct StatsMsg {
  std::string id;
  core::CacheStats stats;
  /// Server-wide STATS only (0 / empty on per-request lines).
  std::uint64_t engines = 0;
  std::string store_kind;
};

struct DoneMsg {
  std::string id;
  std::uint64_t points = 0;
};

struct ErrorMsg {
  std::string id;  ///< "-" when not tied to a request
  std::string message;
};

std::string format_hello(std::uint64_t version);
bool parse_hello(const std::string& line, Hello* out);

std::string format_begin(const BeginMsg& msg);
bool parse_begin(const std::string& line, BeginMsg* out);

std::string format_sweep(const SweepMsg& msg);
bool parse_sweep(const std::string& line, SweepMsg* out);

std::string format_point(const PointMsg& msg);
bool parse_point(const std::string& line, PointMsg* out);

std::string format_stats(const StatsMsg& msg);
bool parse_stats(const std::string& line, StatsMsg* out);

std::string format_done(const DoneMsg& msg);
bool parse_done(const std::string& line, DoneMsg* out);

/// Multi-line messages are collapsed to one line ("; " separators).
std::string format_error(const std::string& id, const std::string& message);
bool parse_error(const std::string& line, ErrorMsg* out);

}  // namespace kncube::service
