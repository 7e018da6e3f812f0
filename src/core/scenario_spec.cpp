#include "core/scenario_spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace kncube::core {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("ScenarioSpec: " + msg);
}

// Round-trip-exact double formatting: 17 significant digits reproduce any
// IEEE-754 double bit-for-bit through strtod.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double parse_double(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    fail(key + ": expected a number, got '" + value + "'");
  }
  // nan/inf (and overflowing literals) would slip past every range check
  // written as `x < lo || x > hi`.
  if (!std::isfinite(v)) {
    fail(key + ": expected a finite number, got '" + value + "'");
  }
  return v;
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    fail(key + ": expected an integer, got '" + value + "'");
  }
  return v;
}

/// Checked narrowing for the int-typed knobs: out-of-range values fail like
/// any other malformed input instead of silently wrapping.
int parse_int32(const std::string& key, const std::string& value) {
  const std::int64_t v = parse_int(key, value);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    fail(key + ": value " + value + " out of range");
  }
  return static_cast<int>(v);
}

std::uint64_t parse_uint(const std::string& key, const std::string& value) {
  // strtoull (not strtoll): 64-bit seeds use the full unsigned range.
  if (!value.empty() && value[0] == '-') fail(key + ": must be non-negative");
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    fail(key + ": expected an integer, got '" + value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  fail(key + ": expected true/false, got '" + value + "'");
}

const char* traffic_kind_name(const Traffic& t) {
  struct Visitor {
    const char* operator()(const HotspotTraffic&) const { return "hotspot"; }
    const char* operator()(const UniformTraffic&) const { return "uniform"; }
    const char* operator()(const TransposeTraffic&) const { return "transpose"; }
    const char* operator()(const BitComplementTraffic&) const {
      return "bit_complement";
    }
    const char* operator()(const BitReversalTraffic&) const {
      return "bit_reversal";
    }
  };
  return std::visit(Visitor{}, t);
}

const char* basis_name(model::ServiceBasis b) {
  return b == model::ServiceBasis::kInclusive ? "inclusive" : "transmission";
}

model::ServiceBasis parse_basis(const std::string& key, const std::string& value) {
  if (value == "transmission") return model::ServiceBasis::kTransmission;
  if (value == "inclusive") return model::ServiceBasis::kInclusive;
  fail(key + ": expected transmission|inclusive, got '" + value + "'");
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Splits a comma-separated value list; the empty string is the empty list
/// (`fault.routers=` round-trips an explicit-links-only failure set).
std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    const std::string item = trim(value.substr(pos, comma - pos));
    if (!item.empty()) items.push_back(item);
    pos = comma + 1;
  }
  return items;
}

/// One failed-link entry in the canonical `node:dim:+|-` form.
topo::FailedLink parse_failed_link(const std::string& key,
                                   const std::string& entry) {
  const std::size_t c1 = entry.find(':');
  const std::size_t c2 = c1 == std::string::npos ? std::string::npos
                                                 : entry.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) {
    fail(key + ": expected node:dim:+|- entries, got '" + entry + "'");
  }
  topo::FailedLink l;
  l.node = parse_int(key, entry.substr(0, c1));
  l.dim = parse_int32(key, entry.substr(c1 + 1, c2 - c1 - 1));
  const std::string dir = entry.substr(c2 + 1);
  if (dir == "+") {
    l.dir = topo::Direction::kPlus;
  } else if (dir == "-") {
    l.dir = topo::Direction::kMinus;
  } else {
    fail(key + ": link direction must be + or -, got '" + dir + "'");
  }
  return l;
}

std::string format_failed_links(const std::vector<topo::FailedLink>& links) {
  std::string out;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(links[i].node);
    out += ':';
    out += std::to_string(links[i].dim);
    out += links[i].dir == topo::Direction::kPlus ? ":+" : ":-";
  }
  return out;
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
    fail("transpose traffic needs a 2-D torus or mesh");
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
      fail("MMPP stationary burst fraction is degenerate (0 or 1): the chain "
           "effectively never or always bursts; use Bernoulli arrivals");
    }
    // Achievability: the idle-state rate solves
    // pi_b*mult*lambda + (1-pi_b)*idle == lambda, which needs
    // mult*pi_b <= 1 — otherwise idle clamps at 0 and the realized mean
    // exceeds the configured rate at every lambda (model and sim would not
    // even agree on the offered load).
    if (m.burst_multiplier * pi_burst > 1.0) {
      fail("MMPP burst_multiplier * stationary burst fraction exceeds 1: the "
           "idle-state rate clamps at 0 and the realized mean load no longer "
           "matches the configured rate");
    }
  }
}

std::string format_scenario(const ScenarioSpec& spec) {
  std::ostringstream out;
  if (spec.is_torus()) {
    const TorusTopology& t = spec.torus();
    out << "topology.kind=torus\n";
    out << "topology.k=" << t.k << "\n";
    out << "topology.n=" << t.n << "\n";
    out << "topology.bidirectional=" << (t.bidirectional ? "true" : "false") << "\n";
  } else if (spec.is_mesh()) {
    const MeshTopology& m = spec.mesh();
    out << "topology.kind=mesh\n";
    out << "topology.k=" << m.k << "\n";
    out << "topology.n=" << m.n << "\n";
  } else {
    out << "topology.kind=hypercube\n";
    out << "topology.dims=" << spec.hypercube().dims << "\n";
  }
  out << "traffic.kind=" << traffic_kind_name(spec.traffic) << "\n";
  if (spec.is_hotspot()) {
    const HotspotTraffic& t = spec.hotspot();
    out << "traffic.hot_fraction=" << fmt_double(t.fraction) << "\n";
    out << "traffic.hot_node=" << t.hot_node << "\n";
  }
  if (spec.is_mmpp()) {
    const MmppArrivals& m = spec.mmpp();
    out << "arrivals.kind=mmpp\n";
    out << "arrivals.burst_multiplier=" << fmt_double(m.burst_multiplier) << "\n";
    out << "arrivals.p_enter_burst=" << fmt_double(m.p_enter_burst) << "\n";
    out << "arrivals.p_leave_burst=" << fmt_double(m.p_leave_burst) << "\n";
  } else {
    out << "arrivals.kind=bernoulli\n";
  }
  out << "router.vcs=" << spec.vcs << "\n";
  out << "router.buffer_depth=" << spec.buffer_depth << "\n";
  out << "workload.message_length=" << spec.message_length << "\n";
  out << "measure.seed=" << spec.seed << "\n";
  out << "measure.warmup_cycles=" << spec.warmup_cycles << "\n";
  out << "measure.target_messages=" << spec.target_messages << "\n";
  out << "measure.max_cycles=" << spec.max_cycles << "\n";
  out << "model.blocking="
      << (spec.blocking == model::BlockingVariant::kPureWait ? "pure_wait" : "paper")
      << "\n";
  out << "model.busy_basis=" << basis_name(spec.busy_basis) << "\n";
  out << "model.vcmux_basis=" << basis_name(spec.vcmux_basis) << "\n";
  // Fault lines appear only for non-empty failure sets, and then always as
  // the full block of four: a pristine spec's canonical text (hence key(),
  // memo entries and replication seeds) is byte-identical to what it was
  // before faults existed, while any non-empty set is fully result-defining.
  if (!spec.failures.empty()) {
    out << "fault.routers=";
    for (std::size_t i = 0; i < spec.failures.routers.size(); ++i) {
      if (i) out << ',';
      out << spec.failures.routers[i];
    }
    out << "\n";
    out << "fault.links=" << format_failed_links(spec.failures.links) << "\n";
    out << "fault.rate=" << fmt_double(spec.failures.random_rate) << "\n";
    out << "fault.seed=" << spec.failures.random_seed << "\n";
  }
  // Execution knobs come last: key() drops `sim.`-prefixed lines wholesale,
  // so everything above is the result-defining prefix.
  out << "sim.threads=" << spec.sim_threads << "\n";
  return out.str();
}

void apply_scenario_setting(ScenarioSpec& spec, const std::string& key,
                            const std::string& value) {
  // --- variant selectors: switching kinds resets that variant to defaults
  // (re-selecting the active kind is a no-op so parameter order is free).
  if (key == "topology.kind") {
    if (value == "torus") {
      if (!spec.is_torus()) spec.topology = TorusTopology{};
    } else if (value == "hypercube") {
      if (!spec.is_hypercube()) spec.topology = HypercubeTopology{};
    } else if (value == "mesh") {
      if (!spec.is_mesh()) spec.topology = MeshTopology{};
    } else {
      fail(key + ": expected torus|hypercube|mesh, got '" + value + "'");
    }
    return;
  }
  if (key == "traffic.kind") {
    if (value == "hotspot") {
      if (!spec.is_hotspot()) spec.traffic = HotspotTraffic{};
    } else if (value == "uniform") {
      spec.traffic = UniformTraffic{};
    } else if (value == "transpose") {
      spec.traffic = TransposeTraffic{};
    } else if (value == "bit_complement") {
      spec.traffic = BitComplementTraffic{};
    } else if (value == "bit_reversal") {
      spec.traffic = BitReversalTraffic{};
    } else {
      fail(key +
           ": expected hotspot|uniform|transpose|bit_complement|bit_reversal, "
           "got '" +
           value + "'");
    }
    return;
  }
  if (key == "arrivals.kind") {
    if (value == "bernoulli") {
      spec.arrivals = BernoulliArrivals{};
    } else if (value == "mmpp") {
      if (!spec.is_mmpp()) spec.arrivals = MmppArrivals{};
    } else {
      fail(key + ": expected bernoulli|mmpp, got '" + value + "'");
    }
    return;
  }

  // --- variant parameters (require the matching kind to be active) ---
  if (key == "topology.k" || key == "topology.n") {
    // Shared by the two k^n families; the hypercube's size knob is
    // topology.dims.
    if (!spec.is_torus() && !spec.is_mesh()) {
      fail(key + " requires topology.kind=torus or mesh");
    }
    const int v = parse_int32(key, value);
    int& slot = key == "topology.k" ? (spec.is_torus() ? spec.torus().k : spec.mesh().k)
                                    : (spec.is_torus() ? spec.torus().n : spec.mesh().n);
    slot = v;
    return;
  }
  if (key == "topology.bidirectional") {
    if (!spec.is_torus()) fail(key + " requires topology.kind=torus");
    spec.torus().bidirectional = parse_bool(key, value);
    return;
  }
  if (key == "topology.dims") {
    if (!spec.is_hypercube()) fail(key + " requires topology.kind=hypercube");
    spec.hypercube().dims = parse_int32(key, value);
    return;
  }
  if (key == "traffic.hot_fraction" || key == "traffic.hot_node") {
    if (!spec.is_hotspot()) fail(key + " requires traffic.kind=hotspot");
    if (key == "traffic.hot_fraction") {
      spec.hotspot().fraction = parse_double(key, value);
    } else {
      spec.hotspot().hot_node = parse_int(key, value);
    }
    return;
  }
  if (key == "arrivals.burst_multiplier" || key == "arrivals.p_enter_burst" ||
      key == "arrivals.p_leave_burst") {
    if (!spec.is_mmpp()) fail(key + " requires arrivals.kind=mmpp");
    MmppArrivals& m = spec.mmpp();
    const double v = parse_double(key, value);
    if (key == "arrivals.burst_multiplier") {
      m.burst_multiplier = v;
    } else if (key == "arrivals.p_enter_burst") {
      m.p_enter_burst = v;
    } else {
      m.p_leave_burst = v;
    }
    return;
  }

  // --- flat knobs ---
  if (key == "router.vcs") {
    spec.vcs = parse_int32(key, value);
  } else if (key == "router.buffer_depth") {
    spec.buffer_depth = parse_int32(key, value);
  } else if (key == "workload.message_length") {
    spec.message_length = parse_int32(key, value);
  } else if (key == "measure.seed") {
    spec.seed = parse_uint(key, value);
  } else if (key == "measure.warmup_cycles") {
    spec.warmup_cycles = parse_uint(key, value);
  } else if (key == "measure.target_messages") {
    spec.target_messages = parse_uint(key, value);
  } else if (key == "measure.max_cycles") {
    spec.max_cycles = parse_uint(key, value);
  } else if (key == "model.blocking") {
    if (value == "paper") {
      spec.blocking = model::BlockingVariant::kPaper;
    } else if (value == "pure_wait") {
      spec.blocking = model::BlockingVariant::kPureWait;
    } else {
      fail(key + ": expected paper|pure_wait, got '" + value + "'");
    }
  } else if (key == "model.busy_basis") {
    spec.busy_basis = parse_basis(key, value);
  } else if (key == "model.vcmux_basis") {
    spec.vcmux_basis = parse_basis(key, value);
  } else if (key == "fault.routers") {
    spec.failures.routers.clear();
    for (const std::string& item : split_list(value)) {
      spec.failures.routers.push_back(parse_int(key, item));
    }
  } else if (key == "fault.links") {
    spec.failures.links.clear();
    for (const std::string& item : split_list(value)) {
      spec.failures.links.push_back(parse_failed_link(key, item));
    }
  } else if (key == "fault.rate") {
    spec.failures.random_rate = parse_double(key, value);
  } else if (key == "fault.seed") {
    spec.failures.random_seed = parse_uint(key, value);
  } else if (key == "sim.threads") {
    spec.sim_threads = parse_int32(key, value);
  } else {
    fail("unknown key '" + key + "'");
  }
}

ScenarioSpec parse_scenario(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = trim(line);
    if (t.empty() || t[0] == '#') continue;
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      fail("line " + std::to_string(line_no) + ": expected key=value, got '" + t +
           "'");
    }
    try {
      apply_scenario_setting(spec, trim(t.substr(0, eq)), trim(t.substr(eq + 1)));
    } catch (const std::invalid_argument& e) {
      // Re-anchor value errors to the offending line of the input text.
      throw std::invalid_argument("line " + std::to_string(line_no) + ": " +
                                  e.what());
    }
  }
  return spec;
}

std::uint64_t ScenarioSpec::key() const {
  // FNV-1a over the canonical text form: stable across processes and
  // sensitive to every result-affecting field (the text form is injective by
  // construction). `sim.`-prefixed execution lines are skipped: sim.threads
  // is bit-identical by contract, so cache entries, SweepEngine memo hits
  // and replication seeds must not depend on it.
  const std::string text = format_scenario(*this);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size() - 1;
    if (text.compare(pos, 4, "sim.") != 0) {
      for (std::size_t i = pos; i <= nl; ++i) {
        h ^= static_cast<unsigned char>(text[i]);
        h *= 0x100000001b3ULL;
      }
    }
    pos = nl + 1;
  }
  return h;
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
