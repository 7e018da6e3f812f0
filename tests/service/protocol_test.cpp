// Wire-protocol unit tests: value encodings are bit-exact, every message
// formats/parses back field-for-field (and, for random values, back to the
// same line), the formatters write recorded golden bytes, numeric tokens are
// strict, and malformed request frames produce line-anchored errors that
// line up with the frame body the client sent.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"

namespace kncube::service {
namespace {

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

TEST(ProtocolValues, BitFormIsExactForAwkwardDoubles) {
  for (const double v : {0.1, 1.0 / 3.0, 2.3e-4, 6.02214076e23, 5e-324}) {
    double back = 0.0;
    ASSERT_TRUE(parse_rate(format_bits(v), &back)) << v;
    EXPECT_EQ(bits(back), bits(v));
  }
}

TEST(ProtocolValues, ParseRateAcceptsPlainDecimals) {
  double v = 0.0;
  EXPECT_TRUE(parse_rate("0.25", &v));
  EXPECT_EQ(v, 0.25);
  EXPECT_TRUE(parse_rate("2e-4", &v));
  EXPECT_EQ(v, 2e-4);
  EXPECT_FALSE(parse_rate("", &v));
  EXPECT_FALSE(parse_rate("fast", &v));
  EXPECT_FALSE(parse_rate("0.25x", &v));
}

TEST(ProtocolValues, HexStructRoundTripIsByteExact) {
  struct Blob {
    double a;
    std::uint64_t b;
    bool c;
  };
  Blob in{1.0 / 7.0, 0xDEADBEEFCAFEF00DULL, true};
  Blob out{};
  ASSERT_TRUE(decode_struct(encode_struct(in), &out));
  EXPECT_EQ(bits(out.a), bits(in.a));
  EXPECT_EQ(out.b, in.b);
  EXPECT_EQ(out.c, in.c);

  EXPECT_FALSE(decode_struct(encode_struct(in) + "00", &out));  // wrong size
  std::string bad = encode_struct(in);
  bad[3] = 'g';  // not a hex digit
  EXPECT_FALSE(decode_struct(bad, &out));
}

TEST(ProtocolRequest, ExplicitLambdasRoundTripBitExact) {
  Request in;
  in.id = "r7";
  in.spec_text = "topology.k=8\n";
  in.lambdas = {1.0 / 3.0, 2e-4};
  in.with_sim = false;
  const Request out = parse_request_body("r7", format_request_body(in));
  EXPECT_EQ(out.id, "r7");
  ASSERT_EQ(out.lambdas.size(), 2u);
  EXPECT_EQ(bits(out.lambdas[0]), bits(in.lambdas[0]));
  EXPECT_EQ(bits(out.lambdas[1]), bits(in.lambdas[1]));
  EXPECT_FALSE(out.with_sim);
  // The spec text survives with request.* lines blanked, not removed.
  EXPECT_NE(out.spec_text.find("topology.k=8"), std::string::npos);
}

TEST(ProtocolRequest, SweepParametersRoundTripBitExact) {
  Request in;
  in.spec_text = "topology.k=8\n";
  in.points = 5;
  in.lo = 0.15;
  in.hi = 0.9;
  in.max_rate = 1.0 / 7.0;
  const Request out = parse_request_body("s", format_request_body(in));
  EXPECT_TRUE(out.lambdas.empty());
  EXPECT_EQ(out.points, 5);
  EXPECT_EQ(bits(out.lo), bits(in.lo));
  EXPECT_EQ(bits(out.hi), bits(in.hi));
  EXPECT_EQ(bits(out.max_rate), bits(in.max_rate));
  EXPECT_TRUE(out.with_sim);
}

TEST(ProtocolRequest, BlankedParamLinesKeepSpecLineNumbersAligned) {
  // Frame body as the client sent it: the spec error is on body line 3, and
  // the request.* line in the middle must not shift it.
  const std::vector<std::string> body = {
      "topology.kind=torus",        // line 1
      "request.sim=1",              // line 2 (blanked in the spec text)
      "topology.k=potato",          // line 3: malformed spec value
  };
  const Request req = parse_request_body("x", body);
  try {
    core::parse_scenario(req.spec_text);
    FAIL() << "expected parse_scenario to reject line 3";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(ProtocolRequest, MalformedParametersAreLineAnchored) {
  const auto expect_line = [](const std::vector<std::string>& body,
                              const std::string& anchor) {
    try {
      parse_request_body("x", body);
      FAIL() << "expected invalid_argument for " << body.back();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(anchor), std::string::npos)
          << e.what();
    }
  };
  expect_line({"topology.k=8", "request.points=zero"}, "line 2");
  expect_line({"request.lambdas=0.1,-0.5"}, "line 1");
  expect_line({"request.lambdas="}, "line 1");
  expect_line({"topology.k=8", "", "request.sim=maybe"}, "line 3");
  expect_line({"request.burst=9"}, "unknown request parameter");
  expect_line({"request.points"}, "expected request.key=value");
}

TEST(ProtocolMessages, HelloRoundTrips) {
  Hello h;
  ASSERT_TRUE(parse_hello(format_hello(0xABCDEF0123456789ULL), &h));
  EXPECT_EQ(h.protocol, kProtocolVersion);
  EXPECT_EQ(h.version, 0xABCDEF0123456789ULL);
  EXPECT_FALSE(parse_hello("HTTP/1.1 200 OK", &h));
}

TEST(ProtocolMessages, BeginRoundTripsWithAndWithoutReason) {
  BeginMsg in;
  in.id = "r1";
  in.spec_key = 0x1234;
  in.model_name = "hotspot-torus";
  BeginMsg out;
  ASSERT_TRUE(parse_begin(format_begin(in), &out));
  EXPECT_EQ(out.id, "r1");
  EXPECT_EQ(out.spec_key, 0x1234u);
  EXPECT_EQ(out.model_name, "hotspot-torus");
  EXPECT_TRUE(out.reason.empty());

  BeginMsg sim_only;
  sim_only.id = "r2";
  sim_only.spec_key = 9;
  sim_only.reason = "no analytical model for n = 3 tori";
  BeginMsg out2;
  ASSERT_TRUE(parse_begin(format_begin(sim_only), &out2));
  EXPECT_TRUE(out2.model_name.empty());
  EXPECT_EQ(out2.reason, "no analytical model for n = 3 tori");
}

TEST(ProtocolMessages, SweepRoundTripsBitExact) {
  SweepMsg in;
  in.id = "r1";
  in.saturation = 0.00217983;
  in.probes = 12;
  SweepMsg out;
  ASSERT_TRUE(parse_sweep(format_sweep(in), &out));
  EXPECT_EQ(bits(out.saturation), bits(in.saturation));
  EXPECT_EQ(out.probes, 12);
}

TEST(ProtocolMessages, PointRoundTripsResultStructsBitExact) {
  PointMsg in;
  in.id = "r1";
  in.index = 3;
  in.point.lambda = 1.0 / 3.0;
  in.point.has_model = true;
  in.point.model.latency = 40.622e0 / 7.0;
  in.point.model.saturated = false;
  in.point.model.iterations = 13;
  in.point.has_sim = true;
  in.point.sim.mean_latency = 56.252 / 3.0;
  in.point.sim.measured_messages = 4321;
  in.point.sim.steady = true;

  PointMsg out;
  ASSERT_TRUE(parse_point(format_point(in), &out));
  EXPECT_EQ(out.index, 3u);
  EXPECT_EQ(bits(out.point.lambda), bits(in.point.lambda));
  ASSERT_TRUE(out.point.has_model);
  EXPECT_EQ(bits(out.point.model.latency), bits(in.point.model.latency));
  EXPECT_EQ(out.point.model.iterations, 13);
  ASSERT_TRUE(out.point.has_sim);
  EXPECT_EQ(bits(out.point.sim.mean_latency), bits(in.point.sim.mean_latency));
  EXPECT_EQ(out.point.sim.measured_messages, 4321u);
  EXPECT_TRUE(out.point.sim.steady);
}

TEST(ProtocolMessages, PointCarriesAbsentSidesAsDashes) {
  PointMsg in;
  in.id = "r1";
  in.index = 0;
  in.point.lambda = 2e-4;
  in.point.has_model = false;
  in.point.has_sim = false;
  PointMsg out;
  ASSERT_TRUE(parse_point(format_point(in), &out));
  EXPECT_FALSE(out.point.has_model);
  EXPECT_FALSE(out.point.has_sim);
}

TEST(ProtocolMessages, StatsRoundTripsBothShapes) {
  StatsMsg per_request;
  per_request.id = "r1";
  per_request.stats.model_hits = 4;
  per_request.stats.model_solves = 2;
  per_request.stats.inflight_waits = 1;
  StatsMsg out;
  ASSERT_TRUE(parse_stats(format_stats(per_request), &out));
  EXPECT_EQ(out.id, "r1");
  EXPECT_EQ(out.stats.model_hits, 4u);
  EXPECT_EQ(out.stats.model_solves, 2u);
  EXPECT_EQ(out.stats.inflight_waits, 1u);
  EXPECT_TRUE(out.store_kind.empty());

  StatsMsg server_wide;
  server_wide.id = "-";
  server_wide.engines = 3;
  server_wide.store_kind = "disk";
  server_wide.stats.sim_runs = 8;
  StatsMsg out2;
  ASSERT_TRUE(parse_stats(format_stats(server_wide), &out2));
  EXPECT_EQ(out2.engines, 3u);
  EXPECT_EQ(out2.store_kind, "disk");
  EXPECT_EQ(out2.stats.sim_runs, 8u);
}

TEST(ProtocolMessages, DoneAndErrorRoundTrip) {
  DoneMsg done;
  ASSERT_TRUE(parse_done(format_done({"r9", 17}), &done));
  EXPECT_EQ(done.id, "r9");
  EXPECT_EQ(done.points, 17u);

  ErrorMsg err;
  ASSERT_TRUE(parse_error(format_error("r2", "line 3: bad value\ntry again"),
                          &err));
  EXPECT_EQ(err.id, "r2");
  EXPECT_EQ(err.message, "line 3: bad value; try again");
  // Untied errors get the "-" id.
  ASSERT_TRUE(parse_error(format_error("", "unknown command 'BOGUS'"), &err));
  EXPECT_EQ(err.id, "-");
}

TEST(ProtocolMessages, ParsersRejectForeignLines) {
  BeginMsg b;
  SweepMsg s;
  PointMsg p;
  StatsMsg st;
  DoneMsg d;
  ErrorMsg e;
  const std::string point = format_point(PointMsg{});
  EXPECT_FALSE(parse_begin(point, &b));
  EXPECT_FALSE(parse_sweep(point, &s));
  EXPECT_FALSE(parse_stats(point, &st));
  EXPECT_FALSE(parse_done(point, &d));
  EXPECT_FALSE(parse_error(point, &e));
  EXPECT_FALSE(parse_point("POINT id=x index=0", &p));  // missing fields
  EXPECT_FALSE(parse_point("", &p));
}

/// Fills every byte of `value` with `next()`'s low bytes.
template <typename T, typename Next>
void fill_bytes(T* value, Next&& next) {
  unsigned char bytes[sizeof(T)];
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(next());
  std::memcpy(static_cast<void*>(value), bytes, sizeof(T));
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Seeded generator of message fields: ids and texts the wire can carry,
/// and 64-bit patterns that favour the awkward doubles.
class FieldGen {
 public:
  explicit FieldGen(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t u64() { return rng_(); }
  std::uint64_t below(std::uint64_t n) { return rng_() % n; }

  double any_double() {
    static constexpr std::uint64_t kSpecial[] = {
        0x0000000000000000ULL,  // +0
        0x8000000000000000ULL,  // -0
        0x0000000000000001ULL,  // smallest subnormal
        0x800fffffffffffffULL,  // largest negative subnormal
        0x7ff0000000000000ULL,  // +inf
        0xfff0000000000000ULL,  // -inf
        0x7ff8000000000000ULL,  // quiet NaN
        0x7ff0000000000001ULL,  // signalling NaN payload
        0xfff8dead0000beefULL,  // negative NaN with payload
        0x3ff0000000000000ULL,  // 1
    };
    const std::uint64_t bits = below(3) == 0 ? kSpecial[below(std::size(kSpecial))] : u64();
    return std::bit_cast<double>(bits);
  }

  /// 1-12 characters of [A-Za-z0-9._-].
  std::string token() {
    static constexpr char kChars[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    std::string t(1 + below(12), ' ');
    for (char& c : t) c = kChars[below(sizeof(kChars) - 1)];
    return t;
  }

  /// 1-40 printable ASCII characters, spaces included.
  std::string text() {
    std::string t(1 + below(40), ' ');
    for (char& c : t) c = static_cast<char>(' ' + below(95));
    return t;
  }

 private:
  std::mt19937_64 rng_;
};

TEST(ProtocolMessages, EveryMessageKindRoundTripsRandomValues) {
  FieldGen gen(20261019);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));

    const std::uint64_t version = gen.u64();
    Hello hello;
    ASSERT_TRUE(parse_hello(format_hello(version), &hello));
    EXPECT_EQ(hello.protocol, kProtocolVersion);
    EXPECT_EQ(hello.version, version);

    BeginMsg begin;
    begin.id = gen.token();
    begin.spec_key = gen.u64();
    if (gen.below(2) == 0) {
      do begin.model_name = gen.token();
      while (begin.model_name == "-");  // "-" is how an absent name travels
    }
    if (gen.below(2) == 0) begin.reason = gen.text();
    const std::string begin_line = format_begin(begin);
    BeginMsg begin_back;
    ASSERT_TRUE(parse_begin(begin_line, &begin_back)) << begin_line;
    EXPECT_EQ(begin_back.id, begin.id);
    EXPECT_EQ(begin_back.spec_key, begin.spec_key);
    EXPECT_EQ(begin_back.model_name, begin.model_name);
    EXPECT_EQ(begin_back.reason, begin.reason);
    EXPECT_EQ(format_begin(begin_back), begin_line);

    SweepMsg sweep;
    sweep.id = gen.token();
    sweep.saturation = gen.any_double();
    sweep.probes = static_cast<int>(gen.below(std::numeric_limits<int>::max()));
    const std::string sweep_line = format_sweep(sweep);
    SweepMsg sweep_back;
    ASSERT_TRUE(parse_sweep(sweep_line, &sweep_back)) << sweep_line;
    EXPECT_EQ(sweep_back.id, sweep.id);
    EXPECT_EQ(bits(sweep_back.saturation), bits(sweep.saturation));
    EXPECT_EQ(sweep_back.probes, sweep.probes);
    EXPECT_EQ(format_sweep(sweep_back), sweep_line);

    PointMsg point;
    point.id = gen.token();
    point.index = gen.u64();
    point.point.lambda = gen.any_double();
    point.point.has_model = gen.below(2) == 0;
    point.point.has_sim = gen.below(2) == 0;
    fill_bytes(&point.point.model, [&gen] { return gen.u64(); });
    fill_bytes(&point.point.sim, [&gen] { return gen.u64(); });
    const std::string point_line = format_point(point);
    PointMsg point_back;
    ASSERT_TRUE(parse_point(point_line, &point_back)) << point_line;
    EXPECT_EQ(point_back.id, point.id);
    EXPECT_EQ(point_back.index, point.index);
    EXPECT_EQ(bits(point_back.point.lambda), bits(point.point.lambda));
    ASSERT_EQ(point_back.point.has_model, point.point.has_model);
    ASSERT_EQ(point_back.point.has_sim, point.point.has_sim);
    if (point.point.has_model) {
      EXPECT_TRUE(same_bytes(point_back.point.model, point.point.model));
    }
    if (point.point.has_sim) {
      EXPECT_TRUE(same_bytes(point_back.point.sim, point.point.sim));
    }
    EXPECT_EQ(format_point(point_back), point_line);

    StatsMsg stats;
    stats.id = gen.token();
    if (gen.below(2) == 0) {  // the server-wide shape
      stats.engines = gen.u64();
      stats.store_kind = gen.token();
    }
    for (const auto& [name, counter] : core::kCacheStatsFields) {
      stats.stats.*counter = gen.u64();
    }
    const std::string stats_line = format_stats(stats);
    StatsMsg stats_back;
    ASSERT_TRUE(parse_stats(stats_line, &stats_back)) << stats_line;
    EXPECT_EQ(stats_back.id, stats.id);
    EXPECT_EQ(stats_back.engines, stats.engines);
    EXPECT_EQ(stats_back.store_kind, stats.store_kind);
    for (const auto& [name, counter] : core::kCacheStatsFields) {
      EXPECT_EQ(stats_back.stats.*counter, stats.stats.*counter) << name;
    }
    EXPECT_EQ(format_stats(stats_back), stats_line);

    const DoneMsg done{gen.token(), gen.u64()};
    const std::string done_line = format_done(done);
    DoneMsg done_back;
    ASSERT_TRUE(parse_done(done_line, &done_back)) << done_line;
    EXPECT_EQ(done_back.id, done.id);
    EXPECT_EQ(done_back.points, done.points);
    EXPECT_EQ(format_done(done_back), done_line);

    const std::string error_id = gen.token();
    const std::string message = gen.text();
    const std::string error_line = format_error(error_id, message);
    ErrorMsg error_back;
    ASSERT_TRUE(parse_error(error_line, &error_back)) << error_line;
    EXPECT_EQ(error_back.id, error_id);
    EXPECT_EQ(error_back.message, message);
    EXPECT_EQ(format_error(error_back.id, error_back.message), error_line);
  }
}

// One line per message kind, recorded from the formatter the wire format
// was first released with: the bytes a deployed client expects.
TEST(ProtocolMessages, FormattersWriteTheRecordedGoldenBytes) {
  // Struct blob bytes: byte j = (37 j + 11) mod 256.
  const auto pattern = [] { return [j = 0]() mutable { return 37 * j++ + 11; }; };
  const std::string model_hex =
      "0b30557a9fc4e90e33587da2c7ec11365b80a5caef14395e83a8cdf2173c6186"
      "abd0f51a3f6489aed3f81d42678cb1d6fb20456a8fb4d9fe23486d92b7dc0126"
      "4b7095badf04294e7398bde2072c5176";
  const std::string sim_hex =
      model_hex +
      "9bc0e50a2f54799ec3e80d32577ca1c6eb10355a7fa4c9ee13385d82a7ccf116"
      "3b6085aacff4193e6388add2f71c41668bb0d5fa1f44698eb3d8fd22476c91b6"
      "db00254a6f94b9de03284d7297bce1062b50759abfe4092e53789dc2e70c3156"
      "7ba0c5ea0f34597ea3c8ed12375c81a6cbf0153a5f84a9cef3183d6287acd1f6"
      "1b40658aafd4f91e43688db2d7fc21466b90b5daff24496e";
  ASSERT_EQ(model_hex.size(), 2 * sizeof(model::ModelResult));
  ASSERT_EQ(sim_hex.size(), 2 * sizeof(sim::SimResult));

  BeginMsg modeled;
  modeled.id = "r12";
  modeled.spec_key = 0xfedcba9876543210ULL;
  modeled.model_name = "hotspot-torus";
  BeginMsg sim_only;
  sim_only.id = "r3";
  sim_only.spec_key = 9;
  sim_only.reason = "no analytical model for n = 3 tori";
  SweepMsg sweep;
  sweep.id = "r12";
  sweep.saturation = std::bit_cast<double>(0x3f4a36e2eb1c432dULL);
  sweep.probes = 12;
  PointMsg full;
  full.id = "r12";
  full.index = 15;
  full.point.lambda = std::bit_cast<double>(0x3f2a36e2eb1c432dULL);
  full.point.has_model = true;
  full.point.has_sim = true;
  fill_bytes(&full.point.model, pattern());
  fill_bytes(&full.point.sim, pattern());
  PointMsg empty;
  empty.id = "r12";
  empty.point.lambda = -0.0;
  StatsMsg per_request;
  per_request.id = "r12";
  per_request.stats = {101, 102, 103, 104, 105, 106, 107, 108, 109};
  StatsMsg server_wide;
  server_wide.id = "-";
  server_wide.engines = 3;
  server_wide.store_kind = "disk";
  server_wide.stats.sim_runs = 8;

  EXPECT_EQ(format_hello(0x0123456789abcdefULL),
            "KNCUBE-SERVE 1 version=0x0123456789abcdef");
  EXPECT_EQ(format_begin(modeled),
            "BEGIN id=r12 key=0xfedcba9876543210 model=hotspot-torus");
  EXPECT_EQ(format_begin(sim_only),
            "BEGIN id=r3 key=0x0000000000000009 model=- "
            "reason=no analytical model for n = 3 tori");
  EXPECT_EQ(format_sweep(sweep),
            "SWEEP id=r12 saturation=0x3f4a36e2eb1c432d probes=12");
  EXPECT_EQ(format_point(full),
            "POINT id=r12 index=15 lambda=0x3f2a36e2eb1c432d model=" +
                model_hex + " sim=" + sim_hex);
  EXPECT_EQ(format_point(empty),
            "POINT id=r12 index=0 lambda=0x8000000000000000 model=- sim=-");
  EXPECT_EQ(format_stats(per_request),
            "STATS id=r12 model_entries=101 sim_entries=102 "
            "saturation_entries=103 model_hits=104 sim_hits=105 "
            "saturation_hits=106 model_solves=107 sim_runs=108 "
            "inflight_waits=109");
  EXPECT_EQ(format_stats(server_wide),
            "STATS id=- engines=3 store=disk model_entries=0 sim_entries=0 "
            "saturation_entries=0 model_hits=0 sim_hits=0 saturation_hits=0 "
            "model_solves=0 sim_runs=8 inflight_waits=0");
  EXPECT_EQ(format_done({"r12", 16}), "DONE id=r12 points=16");
  EXPECT_EQ(format_error("r2", "line 3: bad value\ntry again\n"),
            "ERROR id=r2 line 3: bad value; try again");
  EXPECT_EQ(format_error("", "unknown command 'BOGUS'"),
            "ERROR id=- unknown command 'BOGUS'");
}

TEST(ProtocolMessages, NumericTokensAreStrict) {
  // Each malformed token next to its well-formed twin, which must parse.
  const std::string lambda = "lambda=0x3f2a36e2eb1c432d";
  const auto point = [](const std::string& index, const std::string& lambda) {
    PointMsg msg;
    return parse_point("POINT id=r1 " + index + " " + lambda + " model=- sim=-",
                       &msg);
  };
  EXPECT_TRUE(point("index=3", lambda));
  EXPECT_FALSE(point("index=-1", lambda));  // once read as 2^64 - 1
  EXPECT_FALSE(point("index=+3", lambda));
  EXPECT_FALSE(point("index=3", "lambda=0x0x3ff0000000000000"));
  EXPECT_FALSE(point("index=3", "lambda=0x-1"));  // once read as a NaN

  SweepMsg sweep;
  EXPECT_TRUE(parse_sweep("SWEEP id=r1 saturation=0x3f4a36e2eb1c432d probes=1",
                          &sweep));
  EXPECT_FALSE(parse_sweep(
      "SWEEP id=r1 saturation=0x3f4a36e2eb1c432d probes=-1", &sweep));

  Hello hello;
  EXPECT_TRUE(parse_hello("KNCUBE-SERVE 1 version=0x0123456789abcdef", &hello));
  EXPECT_FALSE(parse_hello("KNCUBE-SERVE -1 version=0x0123456789abcdef", &hello));

  EXPECT_NO_THROW(parse_request_body("x", {"request.points=5"}));
  EXPECT_THROW(parse_request_body("x", {"request.points=+5"}),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_request_body("x", {"request.lo=0x3fb999999999999a"}));
  EXPECT_THROW(parse_request_body("x", {"request.lo=0x0x3fb999999999999a"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace kncube::service
