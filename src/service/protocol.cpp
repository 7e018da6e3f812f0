#include "service/protocol.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>

namespace kncube::service {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

// ------------------------------------------------------------- appending ---

template <typename Int>
void append_decimal(std::string& out, Int v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

/// `0x` + 16 lowercase hex digits.
void append_hex16(std::string& out, std::uint64_t v) {
  char buf[18] = {'0', 'x'};
  for (int i = 17; i >= 2; --i, v >>= 4) buf[i] = kHexDigits[v & 0xF];
  out.append(buf, sizeof(buf));
}

/// A double as `0x` + the 16 hex digits of its IEEE-754 bit pattern.
void append_bits(std::string& out, double v) {
  append_hex16(out, std::bit_cast<std::uint64_t>(v));
}

void append_hex(std::string& out, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::size_t at = out.size();
  out.resize(at + 2 * size);
  char* p = out.data() + at;
  for (std::size_t i = 0; i < size; ++i) {
    *p++ = kHexDigits[bytes[i] >> 4];
    *p++ = kHexDigits[bytes[i] & 0xF];
  }
}

template <typename T>
void append_struct_or_dash(std::string& out, bool present, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (present) {
    append_hex(out, &value, sizeof(T));
  } else {
    out += '-';
  }
}

// --------------------------------------------------------------- parsing ---

/// Throws std::invalid_argument("line N: " + the concatenated parts).
[[noreturn]] void fail_line(int line_no,
                            std::initializer_list<std::string_view> parts) {
  std::string what = "line ";
  append_decimal(what, line_no);
  what += ": ";
  for (const std::string_view part : parts) what += part;
  throw std::invalid_argument(what);
}

/// The whitespace set of `istream >> std::string` in the C locale.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// A line split once into its whitespace-separated tokens (views into it).
class Tokens {
 public:
  explicit Tokens(std::string_view line) {
    const std::size_t n = line.size();
    for (std::size_t i = 0; i < n;) {
      while (i < n && is_space(line[i])) ++i;
      const std::size_t start = i;
      while (i < n && !is_space(line[i])) ++i;
      if (i > start) tokens_.push_back(line.substr(start, i - start));
    }
  }

  std::size_t size() const { return tokens_.size(); }
  std::string_view operator[](std::size_t i) const { return tokens_[i]; }
  /// True when the first token is `kind`.
  bool is(std::string_view kind) const {
    return !tokens_.empty() && tokens_[0] == kind;
  }

  /// Value of the first `key=`-prefixed token; false when absent.
  bool value(std::string_view key, std::string_view* out) const {
    for (const std::string_view t : tokens_) {
      if (t.size() > key.size() && t[key.size()] == '=' && t.starts_with(key)) {
        *out = t.substr(key.size() + 1);
        return true;
      }
    }
    return false;
  }
  bool value(std::string_view key, std::string* out) const {
    std::string_view v;
    if (!value(key, &v)) return false;
    out->assign(v);
    return true;
  }

 private:
  std::vector<std::string_view> tokens_;
};

/// The whole of `s` as an unsigned integer: digits only, no sign, no prefix.
bool parse_u64(std::string_view s, std::uint64_t* out, int base = 10) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, base);
  if (ec != std::errc{} || ptr != end) return false;
  *out = v;
  return true;
}

bool strip_hex_prefix(std::string_view* s) {
  if (!s->starts_with("0x") && !s->starts_with("0X")) return false;
  s->remove_prefix(2);
  return true;
}

/// `0x` + hex digits, read as an IEEE-754 bit pattern.
bool parse_bits(std::string_view s, double* out) {
  std::uint64_t bits = 0;
  if (!strip_hex_prefix(&s) || !parse_u64(s, &bits, 16)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

/// Decimal, or hex after a `0x` prefix.
bool token_u64(const Tokens& tokens, std::string_view key, std::uint64_t* out) {
  std::string_view v;
  if (!tokens.value(key, &v)) return false;
  return strip_hex_prefix(&v) ? parse_u64(v, out, 16) : parse_u64(v, out);
}

bool token_bits(const Tokens& tokens, std::string_view key, double* out) {
  std::string_view v;
  return tokens.value(key, &v) && parse_bits(v, out);
}

constexpr std::array<signed char, 256> kNibble = [] {
  std::array<signed char, 256> t{};
  t.fill(-1);
  for (int c = 0; c < 10; ++c) t['0' + c] = static_cast<signed char>(c);
  for (int c = 0; c < 6; ++c) {
    t['a' + c] = static_cast<signed char>(10 + c);
    t['A' + c] = static_cast<signed char>(10 + c);
  }
  return t;
}();

}  // namespace

// --------------------------------------------------------- value encodings ---

std::string format_bits(double value) {
  std::string out;
  append_bits(out, value);
  return out;
}

bool parse_rate(std::string_view token, double* out) {
  if (parse_bits(token, out)) return true;
  if (token.empty()) return false;
  const std::string text(token);  // strtod needs a terminated string
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

std::string encode_hex(const void* data, std::size_t size) {
  std::string out;
  append_hex(out, data, size);
  return out;
}

bool decode_hex(std::string_view hex, void* out, std::size_t size) {
  if (hex.size() != size * 2) return false;
  auto* bytes = static_cast<unsigned char*>(out);
  for (std::size_t i = 0; i < size; ++i) {
    const int hi = kNibble[static_cast<unsigned char>(hex[2 * i])];
    const int lo = kNibble[static_cast<unsigned char>(hex[2 * i + 1])];
    if (hi < 0 || lo < 0) return false;
    bytes[i] = static_cast<unsigned char>((hi << 4) | lo);
  }
  return true;
}

// ----------------------------------------------------------------- request ---

Request parse_request_body(const std::string& id,
                           const std::vector<std::string>& lines) {
  Request req;
  req.id = id;
  int line_no = 0;
  for (const std::string& raw : lines) {
    ++line_no;
    // Leading whitespace tolerated, same as the spec grammar.
    const std::size_t start = raw.find_first_not_of(" \t");
    const bool is_param =
        start != std::string::npos && raw.compare(start, 8, "request.") == 0;
    if (!is_param) {
      req.spec_text += raw;
      req.spec_text += '\n';
      continue;
    }
    req.spec_text += '\n';  // keep spec line numbers aligned with the frame body
    const std::string_view t = std::string_view(raw).substr(start + 8);
    const std::size_t eq = t.find('=');
    if (eq == std::string_view::npos)
      fail_line(line_no, {"expected request.key=value, got 'request.", t, "'"});
    const std::string_view key = t.substr(0, eq);
    const std::string_view value = t.substr(eq + 1);
    if (key == "lambdas") {
      req.lambdas.clear();
      // Comma-separated; a trailing comma ends the list (getline semantics).
      for (std::size_t pos = 0; pos < value.size();) {
        const std::size_t comma = std::min(value.find(',', pos), value.size());
        const std::string_view item = value.substr(pos, comma - pos);
        double rate = 0.0;
        if (!parse_rate(item, &rate) || !(rate > 0.0))
          fail_line(line_no, {"request.lambdas: bad rate '", item, "'"});
        req.lambdas.push_back(rate);
        pos = comma + 1;
      }
      if (req.lambdas.empty())
        fail_line(line_no, {"request.lambdas: expected at least one rate"});
    } else if (key == "points") {
      std::uint64_t n = 0;
      if (!parse_u64(value, &n) || n < 2 || n > 100000)
        fail_line(line_no,
                  {"request.points: expected an integer >= 2, got '", value, "'"});
      req.points = static_cast<int>(n);
    } else if (key == "lo" || key == "hi" || key == "max_rate") {
      double v = 0.0;
      if (!parse_rate(value, &v) || !(v >= 0.0))
        fail_line(line_no, {"request.", key, ": bad value '", value, "'"});
      (key == "lo" ? req.lo : key == "hi" ? req.hi : req.max_rate) = v;
    } else if (key == "sim") {
      if (value == "0" || value == "false") {
        req.with_sim = false;
      } else if (value == "1" || value == "true") {
        req.with_sim = true;
      } else {
        fail_line(line_no, {"request.sim: expected 0|1, got '", value, "'"});
      }
    } else {
      fail_line(line_no, {"unknown request parameter 'request.", key, "'"});
    }
  }
  return req;
}

std::vector<std::string> format_request_body(const Request& request) {
  std::vector<std::string> lines;
  // One line per '\n'-terminated piece; a final unterminated piece counts,
  // an empty one does not (getline semantics).
  const std::string_view spec = request.spec_text;
  for (std::size_t pos = 0; pos < spec.size();) {
    const std::size_t nl = std::min(spec.find('\n', pos), spec.size());
    lines.emplace_back(spec.substr(pos, nl - pos));
    pos = nl + 1;
  }
  lines.emplace_back(request.with_sim ? "request.sim=1" : "request.sim=0");
  if (!request.lambdas.empty()) {
    std::string& l = lines.emplace_back("request.lambdas=");
    l.reserve(l.size() + 19 * request.lambdas.size());
    for (std::size_t i = 0; i < request.lambdas.size(); ++i) {
      if (i > 0) l += ',';
      append_bits(l, request.lambdas[i]);
    }
  } else {
    append_decimal(lines.emplace_back("request.points="), request.points);
    append_bits(lines.emplace_back("request.lo="), request.lo);
    append_bits(lines.emplace_back("request.hi="), request.hi);
    if (request.max_rate > 0.0)
      append_bits(lines.emplace_back("request.max_rate="), request.max_rate);
  }
  return lines;
}

// ---------------------------------------------------------------- messages ---

std::string format_hello(std::uint64_t version) {
  std::string line = "KNCUBE-SERVE ";
  append_decimal(line, kProtocolVersion);
  line += " version=";
  append_hex16(line, version);
  return line;
}

bool parse_hello(const std::string& line, Hello* out) {
  const Tokens tokens(line);
  if (tokens.size() < 3 || !tokens.is("KNCUBE-SERVE")) return false;
  std::uint64_t protocol = 0;
  if (!parse_u64(tokens[1], &protocol)) return false;
  out->protocol = static_cast<int>(protocol);
  return token_u64(tokens, "version", &out->version);
}

std::string format_begin(const BeginMsg& msg) {
  std::string line;
  line.reserve(48 + msg.id.size() + msg.model_name.size() + msg.reason.size());
  line += "BEGIN id=";
  line += msg.id;
  line += " key=";
  append_hex16(line, msg.spec_key);
  line += " model=";
  line += msg.model_name.empty() ? std::string_view("-") : msg.model_name;
  if (!msg.reason.empty()) {
    line += " reason=";
    line += msg.reason;
  }
  return line;
}

bool parse_begin(const std::string& line, BeginMsg* out) {
  const Tokens tokens(line);
  if (!tokens.is("BEGIN")) return false;
  std::string_view model;
  if (!tokens.value("id", &out->id) || !token_u64(tokens, "key", &out->spec_key) ||
      !tokens.value("model", &model))
    return false;
  out->model_name.assign(model == "-" ? std::string_view() : model);
  // The reason is the rest of the line after " reason=", spaces included.
  constexpr std::string_view kReason = " reason=";
  if (const std::size_t pos = line.find(kReason); pos != std::string::npos)
    out->reason.assign(line, pos + kReason.size());
  return true;
}

std::string format_sweep(const SweepMsg& msg) {
  std::string line;
  line.reserve(64 + msg.id.size());
  line += "SWEEP id=";
  line += msg.id;
  line += " saturation=";
  append_bits(line, msg.saturation);
  line += " probes=";
  append_decimal(line, msg.probes);
  return line;
}

bool parse_sweep(const std::string& line, SweepMsg* out) {
  const Tokens tokens(line);
  if (!tokens.is("SWEEP")) return false;
  std::uint64_t probes = 0;
  if (!tokens.value("id", &out->id) ||
      !token_bits(tokens, "saturation", &out->saturation) ||
      !token_u64(tokens, "probes", &probes))
    return false;
  out->probes = static_cast<int>(probes);
  return true;
}

std::string format_point(const PointMsg& msg) {
  const core::PointResult& pt = msg.point;
  std::string line;
  line.reserve(80 + msg.id.size() + 2 * sizeof(pt.model) + 2 * sizeof(pt.sim));
  line += "POINT id=";
  line += msg.id;
  line += " index=";
  append_decimal(line, msg.index);
  line += " lambda=";
  append_bits(line, pt.lambda);
  line += " model=";
  append_struct_or_dash(line, pt.has_model, pt.model);
  line += " sim=";
  append_struct_or_dash(line, pt.has_sim, pt.sim);
  return line;
}

bool parse_point(const std::string& line, PointMsg* out) {
  const Tokens tokens(line);
  if (!tokens.is("POINT")) return false;
  std::string_view model, sim;
  if (!tokens.value("id", &out->id) || !token_u64(tokens, "index", &out->index) ||
      !token_bits(tokens, "lambda", &out->point.lambda) ||
      !tokens.value("model", &model) || !tokens.value("sim", &sim))
    return false;
  out->point.has_model = model != "-";
  if (out->point.has_model && !decode_struct(model, &out->point.model))
    return false;
  out->point.has_sim = sim != "-";
  if (out->point.has_sim && !decode_struct(sim, &out->point.sim)) return false;
  return true;
}

std::string format_stats(const StatsMsg& msg) {
  std::string line = "STATS id=";
  line += msg.id;
  if (!msg.store_kind.empty()) {
    line += " engines=";
    append_decimal(line, msg.engines);
    line += " store=";
    line += msg.store_kind;
  }
  line += ' ';
  line += core::format_cache_stats(msg.stats);
  return line;
}

bool parse_stats(const std::string& line, StatsMsg* out) {
  const Tokens tokens(line);
  if (!tokens.is("STATS")) return false;
  if (!tokens.value("id", &out->id)) return false;
  token_u64(tokens, "engines", &out->engines);
  tokens.value("store", &out->store_kind);
  for (const auto& [name, counter] : core::kCacheStatsFields)
    token_u64(tokens, name, &(out->stats.*counter));
  return true;
}

std::string format_done(const DoneMsg& msg) {
  std::string line = "DONE id=";
  line += msg.id;
  line += " points=";
  append_decimal(line, msg.points);
  return line;
}

bool parse_done(const std::string& line, DoneMsg* out) {
  const Tokens tokens(line);
  if (!tokens.is("DONE")) return false;
  return tokens.value("id", &out->id) && token_u64(tokens, "points", &out->points);
}

std::string format_error(const std::string& id, const std::string& message) {
  std::string line = "ERROR id=";
  line.reserve(line.size() + id.size() + 2 + message.size());
  line += id.empty() ? std::string_view("-") : id;
  line += ' ';
  for (std::size_t i = 0; i < message.size(); ++i) {
    if (message[i] == '\n') {
      if (i + 1 < message.size()) line += "; ";
    } else if (message[i] != '\r') {
      line += message[i];
    }
  }
  return line;
}

bool parse_error(const std::string& line, ErrorMsg* out) {
  constexpr std::string_view kPrefix = "ERROR id=";
  if (!std::string_view(line).starts_with(kPrefix)) return false;
  const std::string_view rest = std::string_view(line).substr(kPrefix.size());
  const std::size_t space = rest.find(' ');
  out->id.assign(rest.substr(0, space));
  out->message.assign(space == std::string_view::npos ? std::string_view()
                                                      : rest.substr(space + 1));
  return true;
}

}  // namespace kncube::service
