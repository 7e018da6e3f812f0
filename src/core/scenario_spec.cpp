#include "core/scenario_spec.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace kncube::core {

namespace {

[[noreturn]] void fail(std::initializer_list<std::string_view> parts) {
  std::string msg = "ScenarioSpec: ";
  for (const std::string_view part : parts) msg += part;
  throw std::invalid_argument(msg);
}

/// Strips spaces, tabs and carriage returns from both ends.
std::string_view trim(std::string_view s) {
  const auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  while (!s.empty() && blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && blank(s.back())) s.remove_suffix(1);
  return s;
}

// ------------------------------------------------------------ reading ---
// One `read` overload per field type. Numbers keep the syntax strtoll,
// strtoull and strtod accept (leading whitespace, a '+' sign, `.5`,
// `0x1p-2`), and the whole value must be the number. A value outside its
// type's range fails: nothing is clamped, wrapped or flushed to zero.

/// Skips leading whitespace (as strtoll does) and a sign; true for '-'.
bool take_sign(std::string_view& v) {
  while (!v.empty() && (v.front() == ' ' || (v.front() >= '\t' && v.front() <= '\r'))) {
    v.remove_prefix(1);
  }
  const bool negative = !v.empty() && v.front() == '-';
  if (!v.empty() && (v.front() == '+' || v.front() == '-')) v.remove_prefix(1);
  return negative;
}

/// Reads `digits` whole as a decimal magnitude: errc{} on success,
/// result_out_of_range past 2^64 - 1, invalid_argument otherwise.
std::errc read_magnitude(std::string_view digits, std::uint64_t& out) {
  const char* const end = digits.data() + digits.size();
  const auto [stop, ec] = std::from_chars(digits.data(), end, out);
  if (ec == std::errc::invalid_argument || stop != end) return std::errc::invalid_argument;
  return ec;
}

void read(std::string_view key, std::string_view value, std::int64_t& out) {
  std::string_view digits = value;
  const bool negative = take_sign(digits);
  std::uint64_t magnitude = 0;
  const std::uint64_t limit =
      std::uint64_t{std::numeric_limits<std::int64_t>::max()} + (negative ? 1 : 0);
  if (read_magnitude(digits, magnitude) != std::errc{} || magnitude > limit) {
    fail({key, ": expected an integer, got '", value, "'"});
  }
  out = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
}

/// Checked narrowing for the int-typed knobs: out-of-range values fail like
/// any other malformed input instead of silently wrapping.
void read(std::string_view key, std::string_view value, int& out) {
  std::int64_t v = 0;
  read(key, value, v);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    fail({key, ": value ", value, " out of range"});
  }
  out = static_cast<int>(v);
}

/// 64-bit seeds and cycle counts use the full unsigned range.
void read(std::string_view key, std::string_view value, std::uint64_t& out) {
  std::string_view digits = value;
  if (take_sign(digits)) fail({key, ": must be non-negative"});
  std::uint64_t v = 0;
  const std::errc ec = read_magnitude(digits, v);
  if (ec == std::errc::result_out_of_range) fail({key, ": value ", value, " out of range"});
  if (ec != std::errc{}) fail({key, ": expected an integer, got '", value, "'"});
  out = v;
}

void read(std::string_view key, std::string_view value, double& out) {
  // strtod wants a terminated string; every canonical double fits the
  // stack copy.
  char buf[64];
  std::string long_value;
  const char* text = buf;
  if (value.size() < sizeof buf) {
    std::memcpy(buf, value.data(), value.size());
    buf[value.size()] = '\0';
  } else {
    long_value = value;
    text = long_value.c_str();
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || end != text + value.size()) {
    fail({key, ": expected a number, got '", value, "'"});
  }
  // nan/inf (and overflowing literals) would slip past every range check
  // written as `x < lo || x > hi`.
  if (!std::isfinite(v)) fail({key, ": expected a finite number, got '", value, "'"});
  // A nonzero literal that rounds to zero (1e-400); subnormal results are
  // exact enough to keep.
  if (v == 0.0 && errno == ERANGE) fail({key, ": value ", value, " out of range"});
  out = v;
}

void read(std::string_view key, std::string_view value, bool& out) {
  if (value == "true" || value == "1") {
    out = true;
  } else if (value == "false" || value == "0") {
    out = false;
  } else {
    fail({key, ": expected true/false, got '", value, "'"});
  }
}

/// Calls `item` on each trimmed, non-empty entry of a comma-separated list;
/// the empty string is the empty list (`fault.routers=` round-trips an
/// explicit-links-only failure set).
template <class Item>
void for_each_item(std::string_view list, Item&& item) {
  for (;;) {
    const std::size_t comma = list.find(',');
    const std::string_view entry = trim(list.substr(0, comma));
    if (!entry.empty()) item(entry);
    if (comma == std::string_view::npos) return;
    list.remove_prefix(comma + 1);
  }
}

void read(std::string_view key, std::string_view value, std::vector<std::int64_t>& out) {
  out.clear();
  for_each_item(value, [&](std::string_view entry) {
    std::int64_t router = 0;
    read(key, entry, router);
    out.push_back(router);
  });
}

/// Failed links in the canonical `node:dim:+|-` form.
void read(std::string_view key, std::string_view value,
          std::vector<topo::FailedLink>& out) {
  out.clear();
  for_each_item(value, [&](std::string_view entry) {
    const std::size_t c1 = entry.find(':');
    const std::size_t c2 =
        c1 == std::string_view::npos ? std::string_view::npos : entry.find(':', c1 + 1);
    if (c2 == std::string_view::npos) {
      fail({key, ": expected node:dim:+|- entries, got '", entry, "'"});
    }
    topo::FailedLink l;
    read(key, entry.substr(0, c1), l.node);
    read(key, entry.substr(c1 + 1, c2 - c1 - 1), l.dim);
    const std::string_view dir = entry.substr(c2 + 1);
    if (dir == "+") {
      l.dir = topo::Direction::kPlus;
    } else if (dir == "-") {
      l.dir = topo::Direction::kMinus;
    } else {
      fail({key, ": link direction must be + or -, got '", dir, "'"});
    }
    out.push_back(l);
  });
}

// ------------------------------------------------------------ writing ---
// The text writer appends to one string; key() runs the same writer into
// FNV-1a, so the hash is of exactly the canonical bytes without building
// them.

struct TextSink {
  std::string& text;
  void put(std::string_view s) { text.append(s); }
  void put(char c) { text.push_back(c); }
};

struct HashSink {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  void put(std::string_view s) {
    for (const char c : s) put(c);
  }
  void put(char c) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
};

template <class Sink, class Number>
void write_number(Sink& out, Number v) {
  char buf[32];
  std::to_chars_result r;
  if constexpr (std::is_floating_point_v<Number>) {
    // 17 significant digits reproduce any double bit for bit through strtod
    // (and print what snprintf's "%.17g" prints).
    r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  } else {
    r = std::to_chars(buf, buf + sizeof buf, v);
  }
  out.put(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

template <class Sink>
void write(Sink& out, bool v) {
  out.put(v ? "true" : "false");
}
template <class Sink>
void write(Sink& out, int v) {
  write_number(out, v);
}
template <class Sink>
void write(Sink& out, std::int64_t v) {
  write_number(out, v);
}
template <class Sink>
void write(Sink& out, std::uint64_t v) {
  write_number(out, v);
}
template <class Sink>
void write(Sink& out, double v) {
  write_number(out, v);
}
template <class Sink>
void write(Sink& out, const std::vector<std::int64_t>& routers) {
  for (std::size_t i = 0; i < routers.size(); ++i) {
    if (i) out.put(',');
    write_number(out, routers[i]);
  }
}
template <class Sink>
void write(Sink& out, const std::vector<topo::FailedLink>& links) {
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i) out.put(',');
    write_number(out, links[i].node);
    out.put(':');
    write_number(out, links[i].dim);
    out.put(links[i].dir == topo::Direction::kPlus ? ":+" : ":-");
  }
}

// -------------------------------------------------------- field table ---

/// A field whose value is one word of a fixed list: the variant selectors
/// (`topology.kind`, ...) and the model's enum knobs.
struct Choice {
  std::span<const std::string_view> words;
  std::size_t (*get)(const ScenarioSpec&);  ///< index of the spec's word
  void (*set)(ScenarioSpec&, std::size_t);  ///< selects word i
};

/// Where a field's value lives in a spec. Called only while the field's
/// owner is active, so the variant accessors inside never throw.
template <class T>
using Slot = T* (*)(ScenarioSpec&);

using Access = std::variant<Choice, Slot<bool>, Slot<int>, Slot<std::int64_t>,
                            Slot<std::uint64_t>, Slot<double>,
                            Slot<std::vector<std::int64_t>>,
                            Slot<std::vector<topo::FailedLink>>>;

/// When a field's line is written, and whether key() hashes it.
enum class Emit : std::uint8_t {
  kAlways,    ///< every spec (a variant parameter: while its owner is active)
  kFaulty,    ///< only with a non-empty failure set, and then as a block:
              ///< a pristine spec's text and key() predate the fault block
  kUnhashed,  ///< every spec, but key() skips it: an execution knob whose
              ///< every value gives bit-identical results
};

struct Field {
  std::string_view name;  ///< the dotted key
  Access access;
  Emit emit = Emit::kAlways;
  /// Variant parameters: the `*.kind` field whose active alternative must
  /// be one of `owners` (bit i = alternative i) for this field to be set or
  /// written.
  const Field* selector = nullptr;
  unsigned owners = 0;
};

/// Switching a variant kind resets it to that alternative's defaults;
/// re-selecting the active kind is a no-op, so parameter order is free.
template <class Variant>
void select_alternative(Variant& v, std::size_t i) {
  if (v.index() == i) return;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((i == I ? (void)v.template emplace<I>() : (void)0), ...);
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
}

/// Bit of alternative `T` in `Variant`, for Field::owners.
template <class Variant, class T>
constexpr unsigned owner() {
  return 1u << Variant(T{}).index();
}

/// A variant's `*.kind` field: word i selects alternative i.
template <auto Variant, std::size_t N>
constexpr Field selector(std::string_view name, const std::string_view (&kinds)[N]) {
  static_assert(N == std::variant_size_v<std::remove_reference_t<
                         decltype(std::declval<ScenarioSpec&>().*Variant)>>);
  return {name, Choice{kinds, [](const ScenarioSpec& s) { return (s.*Variant).index(); },
                       [](ScenarioSpec& s, std::size_t i) {
                         select_alternative(s.*Variant, i);
                       }}};
}

/// A two-valued enum knob: word 0 stands for `First`, word 1 for `Second`.
template <auto Member, auto First, auto Second>
constexpr Choice enum_knob(std::span<const std::string_view> words) {
  return {words,
          [](const ScenarioSpec& s) -> std::size_t { return s.*Member == Second; },
          [](ScenarioSpec& s, std::size_t i) { s.*Member = i ? Second : First; }};
}

constexpr std::string_view kTopologyKinds[] = {"torus", "hypercube", "mesh"};
constexpr std::string_view kTrafficKinds[] = {"hotspot", "uniform", "transpose",
                                              "bit_complement", "bit_reversal"};
constexpr std::string_view kArrivalsKinds[] = {"bernoulli", "mmpp"};
constexpr std::string_view kBlockingWords[] = {"paper", "pure_wait"};
constexpr std::string_view kBasisWords[] = {"transmission", "inclusive"};

constexpr Field kTopologyKind =
    selector<&ScenarioSpec::topology>("topology.kind", kTopologyKinds);
constexpr Field kTrafficKind = selector<&ScenarioSpec::traffic>("traffic.kind", kTrafficKinds);
constexpr Field kArrivalsKind =
    selector<&ScenarioSpec::arrivals>("arrivals.kind", kArrivalsKinds);

/// A parameter of the `selector` variant's `owners` alternatives.
constexpr Field param(const Field& selector, unsigned owners, std::string_view name,
                      Access access) {
  return {name, access, Emit::kAlways, &selector, owners};
}

constexpr unsigned kTorus = owner<Topology, TorusTopology>();
constexpr unsigned kHypercube = owner<Topology, HypercubeTopology>();
constexpr unsigned kMesh = owner<Topology, MeshTopology>();
constexpr unsigned kHotspot = owner<Traffic, HotspotTraffic>();
constexpr unsigned kMmpp = owner<Arrivals, MmppArrivals>();

/// The grammar: every field of the text form, in canonical order. Parsing,
/// `--set`, format_scenario and key() all read this table, so a new field
/// is one row here plus its struct member.
constexpr Field kFields[] = {
    kTopologyKind,
    // topology.k/n are shared by the two k^n families; the hypercube's size
    // knob is topology.dims.
    param(kTopologyKind, kTorus | kMesh, "topology.k",
          [](ScenarioSpec& s) { return s.is_torus() ? &s.torus().k : &s.mesh().k; }),
    param(kTopologyKind, kTorus | kMesh, "topology.n",
          [](ScenarioSpec& s) { return s.is_torus() ? &s.torus().n : &s.mesh().n; }),
    param(kTopologyKind, kTorus, "topology.bidirectional",
          [](ScenarioSpec& s) { return &s.torus().bidirectional; }),
    param(kTopologyKind, kHypercube, "topology.dims",
          [](ScenarioSpec& s) { return &s.hypercube().dims; }),
    kTrafficKind,
    param(kTrafficKind, kHotspot, "traffic.hot_fraction",
          [](ScenarioSpec& s) { return &s.hotspot().fraction; }),
    param(kTrafficKind, kHotspot, "traffic.hot_node",
          [](ScenarioSpec& s) { return &s.hotspot().hot_node; }),
    kArrivalsKind,
    param(kArrivalsKind, kMmpp, "arrivals.burst_multiplier",
          [](ScenarioSpec& s) { return &s.mmpp().burst_multiplier; }),
    param(kArrivalsKind, kMmpp, "arrivals.p_enter_burst",
          [](ScenarioSpec& s) { return &s.mmpp().p_enter_burst; }),
    param(kArrivalsKind, kMmpp, "arrivals.p_leave_burst",
          [](ScenarioSpec& s) { return &s.mmpp().p_leave_burst; }),
    {"router.vcs", [](ScenarioSpec& s) { return &s.vcs; }},
    {"router.buffer_depth", [](ScenarioSpec& s) { return &s.buffer_depth; }},
    {"workload.message_length", [](ScenarioSpec& s) { return &s.message_length; }},
    {"measure.seed", [](ScenarioSpec& s) { return &s.seed; }},
    {"measure.warmup_cycles", [](ScenarioSpec& s) { return &s.warmup_cycles; }},
    {"measure.target_messages", [](ScenarioSpec& s) { return &s.target_messages; }},
    {"measure.max_cycles", [](ScenarioSpec& s) { return &s.max_cycles; }},
    {"model.blocking",
     enum_knob<&ScenarioSpec::blocking, model::BlockingVariant::kPaper,
               model::BlockingVariant::kPureWait>(kBlockingWords)},
    {"model.busy_basis",
     enum_knob<&ScenarioSpec::busy_basis, model::ServiceBasis::kTransmission,
               model::ServiceBasis::kInclusive>(kBasisWords)},
    {"model.vcmux_basis",
     enum_knob<&ScenarioSpec::vcmux_basis, model::ServiceBasis::kTransmission,
               model::ServiceBasis::kInclusive>(kBasisWords)},
    {"fault.routers", [](ScenarioSpec& s) { return &s.failures.routers; }, Emit::kFaulty},
    {"fault.links", [](ScenarioSpec& s) { return &s.failures.links; }, Emit::kFaulty},
    {"fault.rate", [](ScenarioSpec& s) { return &s.failures.random_rate; }, Emit::kFaulty},
    {"fault.seed", [](ScenarioSpec& s) { return &s.failures.random_seed; }, Emit::kFaulty},
    // Execution knobs come last: everything above is the result-defining
    // part that key() hashes.
    {"sim.threads", [](ScenarioSpec& s) { return &s.sim_threads; }, Emit::kUnhashed},
};

bool owner_active(const ScenarioSpec& spec, const Field& f) {
  if (!f.selector) return true;
  return (f.owners >> std::get<Choice>(f.selector->access).get(spec)) & 1u;
}

/// The field named `key`, searched from `from` on (wrapping around): text
/// in canonical order finds each field at the first probe.
std::size_t find_field(std::string_view key, std::size_t from = 0) {
  constexpr std::size_t n = std::size(kFields);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = (from + i) % n;
    if (kFields[at].name == key) return at;
  }
  fail({"unknown key '", key, "'"});
}

/// The words whose bit is set in `mask`, joined by `sep`.
std::string join(std::span<const std::string_view> words, std::string_view sep,
                 unsigned mask = ~0u) {
  std::string out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (!((mask >> i) & 1u)) continue;
    if (!out.empty()) out += sep;
    out += words[i];
  }
  return out;
}

void set_field(ScenarioSpec& spec, const Field& f, std::string_view value) {
  if (!owner_active(spec, f)) {
    // "topology.k requires topology.kind=torus or mesh"
    fail({f.name, " requires ", f.selector->name, "=",
          join(std::get<Choice>(f.selector->access).words, " or ", f.owners)});
  }
  std::visit(
      [&](auto access) {
        if constexpr (std::is_same_v<decltype(access), Choice>) {
          const auto word = std::find(access.words.begin(), access.words.end(), value);
          if (word == access.words.end()) {
            fail({f.name, ": expected ", join(access.words, "|"), ", got '", value, "'"});
          }
          access.set(spec, static_cast<std::size_t>(word - access.words.begin()));
        } else {
          read(f.name, value, *access(spec));
        }
      },
      f.access);
}

/// Writes `name=value\n` for every field `spec` carries, in table order;
/// `hashed_only` skips the execution knobs.
template <class Sink>
void write_fields(const ScenarioSpec& spec, Sink& out, bool hashed_only) {
  // The slots only locate members: writing reads through them, never
  // modifies.
  ScenarioSpec& fields = const_cast<ScenarioSpec&>(spec);
  const bool faulty = !spec.failures.empty();
  for (const Field& f : kFields) {
    if (!owner_active(spec, f) || (f.emit == Emit::kFaulty && !faulty) ||
        (f.emit == Emit::kUnhashed && hashed_only)) {
      continue;
    }
    out.put(f.name);
    out.put('=');
    std::visit(
        [&](auto access) {
          if constexpr (std::is_same_v<decltype(access), Choice>) {
            out.put(access.words[access.get(spec)]);
          } else {
            write(out, *access(fields));
          }
        },
        f.access);
    out.put('\n');
  }
}

}  // namespace

std::uint64_t ScenarioSpec::node_count() const noexcept {
  if (is_hypercube()) return std::uint64_t{1} << hypercube().dims;
  const int k = is_torus() ? torus().k : mesh().k;
  const int n = is_torus() ? torus().n : mesh().n;
  std::uint64_t size = 1;
  for (int d = 0; d < n; ++d) size *= static_cast<std::uint64_t>(k);
  return size;
}

void ScenarioSpec::validate() const {
  // Every rule a SimConfig can express is checked once, in
  // SimConfig::validate. What follows exists only because one spec feeds
  // both the model and the simulator; it runs second because the MMPP
  // arithmetic below assumes in-range transition probabilities.
  to_sim_config(*this, 0.0).validate();

  // The simulator realises the hypercube as a k = 2 n-cube, so it would take
  // dims = 2 as a 2-D substrate; transpose is a 2-D torus or mesh pattern.
  if (is_hypercube() && std::holds_alternative<TransposeTraffic>(traffic)) {
    fail({"transpose traffic needs a 2-D torus or mesh"});
  }

  // The MMPP agreement rules stay here, not in SimConfig: the simulator
  // tests run clamped shapes on purpose, but a spec must describe one
  // offered load that the model and the simulator agree on.
  if (is_mmpp()) {
    const MmppArrivals& m = mmpp();
    // Degenerate stationary chains: pi_burst must stay strictly inside (0,1)
    // *in double precision* — extreme p_enter/p_leave ratios round it to 0 or
    // 1, a chain that (effectively) never or always bursts, so the burst
    // multiplier silently distorts the realized mean away from the
    // configured rate. Such specs should say Bernoulli instead.
    const double pi_burst =
        m.p_enter_burst / (m.p_enter_burst + m.p_leave_burst);
    if (!(pi_burst > 0.0) || !(pi_burst < 1.0)) {
      fail({"MMPP stationary burst fraction is degenerate (0 or 1): the chain "
            "effectively never or always bursts; use Bernoulli arrivals"});
    }
    // Achievability: the idle-state rate solves
    // pi_b*mult*lambda + (1-pi_b)*idle == lambda, which needs
    // mult*pi_b <= 1 — otherwise idle clamps at 0 and the realized mean
    // exceeds the configured rate at every lambda (model and sim would not
    // even agree on the offered load).
    if (m.burst_multiplier * pi_burst > 1.0) {
      fail({"MMPP burst_multiplier * stationary burst fraction exceeds 1: the "
            "idle-state rate clamps at 0 and the realized mean load no longer "
            "matches the configured rate"});
    }
  }
}

std::string format_scenario(const ScenarioSpec& spec) {
  std::string text;
  text.reserve(512);
  TextSink out{text};
  write_fields(spec, out, /*hashed_only=*/false);
  return text;
}

void apply_scenario_setting(ScenarioSpec& spec, const std::string& key,
                            const std::string& value) {
  set_field(spec, kFields[find_field(key)], value);
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  const std::string_view all = text;
  std::size_t next_field = 0;
  int line_no = 0;
  for (std::size_t pos = 0; pos < all.size();) {
    std::size_t nl = all.find('\n', pos);
    if (nl == std::string_view::npos) nl = all.size();
    const std::string_view line = trim(all.substr(pos, nl - pos));
    pos = nl + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail({"line ", std::to_string(line_no), ": expected key=value, got '", line, "'"});
    }
    try {
      const std::size_t field = find_field(trim(line.substr(0, eq)), next_field);
      set_field(spec, kFields[field], trim(line.substr(eq + 1)));
      next_field = field + 1;
    } catch (const std::invalid_argument& e) {
      // Re-anchor value errors to the offending line of the input text.
      throw std::invalid_argument("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  return spec;
}

std::uint64_t ScenarioSpec::key() const {
  // FNV-1a over the canonical text form, which is injective by
  // construction: stable across processes and sensitive to every
  // result-affecting field. The execution knobs (sim.*) are skipped:
  // sim.threads is bit-identical by contract, so cache entries, SweepEngine
  // memo hits and replication seeds must not depend on it.
  HashSink out;
  write_fields(*this, out, /*hashed_only=*/true);
  return out.hash;
}

sim::SimConfig to_sim_config(const ScenarioSpec& spec, double lambda) {
  sim::SimConfig cfg;
  if (spec.is_torus()) {
    const TorusTopology& t = spec.torus();
    cfg.k = t.k;
    cfg.n = t.n;
    cfg.bidirectional = t.bidirectional;
  } else if (spec.is_mesh()) {
    const MeshTopology& m = spec.mesh();
    cfg.k = m.k;
    cfg.n = m.n;
    cfg.mesh = true;
  } else {
    cfg.k = 2;
    cfg.n = spec.hypercube().dims;
    cfg.bidirectional = false;
  }
  cfg.vcs = spec.vcs;
  cfg.buffer_depth = spec.buffer_depth;
  cfg.message_length = spec.message_length;
  cfg.injection_rate = lambda;

  struct TrafficVisitor {
    sim::SimConfig& cfg;
    void operator()(const HotspotTraffic& t) const {
      cfg.pattern = sim::Pattern::kHotspot;
      cfg.hot_fraction = t.fraction;
      cfg.hot_node = t.hot_node;
    }
    void operator()(const UniformTraffic&) const {
      cfg.pattern = sim::Pattern::kUniform;
    }
    void operator()(const TransposeTraffic&) const {
      cfg.pattern = sim::Pattern::kTranspose;
    }
    void operator()(const BitComplementTraffic&) const {
      cfg.pattern = sim::Pattern::kBitComplement;
    }
    void operator()(const BitReversalTraffic&) const {
      cfg.pattern = sim::Pattern::kBitReversal;
    }
  };
  std::visit(TrafficVisitor{cfg}, spec.traffic);

  if (spec.is_mmpp()) {
    const MmppArrivals& m = spec.mmpp();
    cfg.arrivals = sim::Arrivals::kMmpp;
    cfg.mmpp.burst_rate_multiplier = m.burst_multiplier;
    cfg.mmpp.p_enter_burst = m.p_enter_burst;
    cfg.mmpp.p_leave_burst = m.p_leave_burst;
  } else {
    cfg.arrivals = sim::Arrivals::kBernoulli;
  }

  cfg.failed_routers = spec.failures.routers;
  cfg.failed_links = spec.failures.links;
  cfg.failure_rate = spec.failures.random_rate;
  cfg.failure_seed = spec.failures.random_seed;

  cfg.seed = spec.seed;
  cfg.warmup_cycles = spec.warmup_cycles;
  cfg.target_messages = spec.target_messages;
  cfg.max_cycles = spec.max_cycles;
  cfg.sim_threads = spec.sim_threads;
  return cfg;
}

}  // namespace kncube::core
