// Recorded golden for ScenarioSpec::key() and the canonical text form.
//
// DiskResultStore records and every replication seed
// (`sim::replication_seed(spec.key(), ...)`) hash key(), so a change to the
// text writer that moves one byte silently orphans stored answers and moves
// every replicated simulation. This file pins, for every
// examples/specs/*.spec file and for 200 seeded random specs,
//   - key();
//   - FNV-1a over format_scenario's whole output (sim.* lines included);
// and that the canonical text parses back to itself. The random specs cycle
// through every topology, traffic and arrivals alternative, carry a fault
// block about a third of the time, draw both model enums, and take their
// doubles from a pool of extremes: subnormals, 1 - ulp, the smallest
// normal, -0, the largest double and repeating fractions like 0.1 and 1/3.
// They are built from raw std::mt19937_64 output (no std distributions,
// whose output is implementation-defined), so every toolchain draws the
// same specs.
//
// To regenerate after an *intentional* change to the text form:
//   KNCUBE_PRINT_GOLDEN=1 ./core_tests --gtest_filter='SpecTextGolden.*'
// and paste the printed tables.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <string_view>

#include "core/scenario_spec.hpp"
#include "support/example_specs.hpp"

namespace kncube::core {
namespace {

/// FNV-1a 64 over `bytes`, the hash ScenarioSpec::key() applies to the
/// canonical text.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct FileGolden {
  const char* name;
  std::uint64_t key;
  std::uint64_t text_fnv;
};

struct RandomGolden {
  std::uint64_t key;
  std::uint64_t text_fnv;
};

constexpr int kRandomSpecs = 200;

bool print_mode() { return std::getenv("KNCUBE_PRINT_GOLDEN") != nullptr; }

double extreme_double(std::mt19937_64& rng) {
  switch (rng() % 12) {
    case 0: return std::numeric_limits<double>::denorm_min();
    case 1: return std::bit_cast<double>(rng() & 0x000FFFFFFFFFFFFFULL);  // subnormal
    case 2: return std::nextafter(1.0, 0.0);                             // 1 - ulp
    case 3: return std::numeric_limits<double>::min();
    case 4: return -0.0;
    case 5: return std::numeric_limits<double>::max();
    case 6: return static_cast<double>(1 + rng() % 9) / 10.0;  // 0.1 ... 0.9
    case 7: {  // 1/3, 7/9, ...: one draw per statement, so the order is fixed
      const double num = static_cast<double>(1 + rng() % 50);
      return num / static_cast<double>(3 + rng() % 47);
    }
    case 8: return static_cast<double>(rng() >> 11) * 0x1p-53;  // [0, 1)
    case 9: {
      // Any finite bit pattern: clear the top exponent bit when the
      // exponent would be all ones.
      std::uint64_t b = rng();
      if (((b >> 52) & 0x7FF) == 0x7FF) b &= ~(std::uint64_t{1} << 62);
      return std::bit_cast<double>(b);
    }
    case 10: return 0.0;
    default: return static_cast<double>(rng() % 5);
  }
}

int extreme_int(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0: return std::numeric_limits<int>::min();
    case 1: return std::numeric_limits<int>::max();
    case 2: return -1;
    case 3: return static_cast<int>(static_cast<std::uint32_t>(rng()));
    default: return static_cast<int>(rng() % 64);
  }
}

std::int64_t extreme_int64(std::mt19937_64& rng) {
  switch (rng() % 5) {
    case 0: return std::numeric_limits<std::int64_t>::min();
    case 1: return std::numeric_limits<std::int64_t>::max();
    case 2: return -1;
    case 3: return static_cast<std::int64_t>(rng());
    default: return static_cast<std::int64_t>(rng() % 4096);
  }
}

std::uint64_t extreme_uint64(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: return 0;
    case 1: return std::numeric_limits<std::uint64_t>::max();
    case 2: return rng();
    default: return rng() % 100000;
  }
}

/// Random spec `i`: the variant alternatives cycle with i (3, 5 and 2 are
/// coprime, so the first 30 specs hold every combination); the values are
/// drawn from `rng`. Nothing is validated: key() and the text form cover
/// any value a field can hold.
ScenarioSpec random_spec(int i, std::mt19937_64& rng) {
  ScenarioSpec s;
  switch (i % 3) {
    case 0: s.topology = TorusTopology{extreme_int(rng), extreme_int(rng), rng() % 2 == 0}; break;
    case 1: s.topology = HypercubeTopology{extreme_int(rng)}; break;
    default: s.topology = MeshTopology{extreme_int(rng), extreme_int(rng)}; break;
  }
  switch (i % 5) {
    case 0: s.traffic = HotspotTraffic{extreme_double(rng), extreme_int64(rng)}; break;
    case 1: s.traffic = UniformTraffic{}; break;
    case 2: s.traffic = TransposeTraffic{}; break;
    case 3: s.traffic = BitComplementTraffic{}; break;
    default: s.traffic = BitReversalTraffic{}; break;
  }
  if (i % 2 == 1) {
    s.arrivals = MmppArrivals{extreme_double(rng), extreme_double(rng), extreme_double(rng)};
  }
  if (rng() % 3 == 0) {
    for (std::uint64_t r = rng() % 4; r > 0; --r) {
      s.failures.routers.push_back(extreme_int64(rng));
    }
    for (std::uint64_t l = rng() % 4; l > 0; --l) {
      s.failures.links.push_back({extreme_int64(rng), extreme_int(rng),
                                  rng() % 2 == 0 ? topo::Direction::kPlus
                                                 : topo::Direction::kMinus});
    }
    s.failures.random_rate = extreme_double(rng);
    s.failures.random_seed = extreme_uint64(rng);
  }
  s.vcs = extreme_int(rng);
  s.buffer_depth = extreme_int(rng);
  s.message_length = extreme_int(rng);
  s.seed = extreme_uint64(rng);
  s.warmup_cycles = extreme_uint64(rng);
  s.target_messages = extreme_uint64(rng);
  s.max_cycles = extreme_uint64(rng);
  s.blocking = rng() % 2 == 0 ? model::BlockingVariant::kPaper
                              : model::BlockingVariant::kPureWait;
  s.busy_basis = rng() % 2 == 0 ? model::ServiceBasis::kTransmission
                                : model::ServiceBasis::kInclusive;
  s.vcmux_basis = rng() % 2 == 0 ? model::ServiceBasis::kTransmission
                                 : model::ServiceBasis::kInclusive;
  s.sim_threads = extreme_int(rng);
  return s;
}

// clang-format off
const FileGolden kFiles[] = {
    {"faulty_mesh.spec", 0x9032668a8fde0bc2ULL, 0x738e71f566f52d0eULL},
    {"hotspot_mesh.spec", 0x569f84f5c1529858ULL, 0x5f1f2aec0426ba90ULL},
    {"hotspot_torus.spec", 0x77dfe745f4735b7aULL, 0x912aeafb11a125a6ULL},
    {"hypercube.spec", 0x3c861a1f7bc8c824ULL, 0x574fcc4f8c999f3cULL},
    {"mesh.spec", 0x7f50797966ee0be7ULL, 0x49542ca693c243ffULL},
    {"mmpp_torus.spec", 0x06363d119f0fd60bULL, 0x166b10cba9e74bd3ULL},
};

const RandomGolden kRandom[kRandomSpecs] = {
    {0x10205734ebbe0b27ULL, 0xadd14ae10dd10cd8ULL},
    {0xaae34dea49ea38c7ULL, 0xfd7781c167aa384cULL},
    {0x6fdb8c90b70a0401ULL, 0xb77f1f919866aa94ULL},
    {0xe8f11778fc78bd7cULL, 0xdd3b7236c39ae622ULL},
    {0x346b308e822bd59aULL, 0xaef73dfbf784d605ULL},
    {0x59a1cc5d137a17b4ULL, 0x7f6a248108beca69ULL},
    {0x215d2469ed3a0c40ULL, 0x90ca50baa64cfa27ULL},
    {0x606a818de6cf6f3bULL, 0xd0bfdcc3d9dcb9bbULL},
    {0xe52832511dea4f76ULL, 0x8f2dcba4f1156e11ULL},
    {0x3315d7be8c4b2f24ULL, 0x9e9a79c029ad6a4bULL},
    {0x7a7ff306fde31018ULL, 0x5a61597ed9a264e7ULL},
    {0x5d6e4c4d8ffd79f6ULL, 0xaf08a2736c18e8a3ULL},
    {0x441cc08c9cb0ec66ULL, 0xa0bce13d7b009179ULL},
    {0x66b3759366650da9ULL, 0x17331cb267c5899cULL},
    {0x6d2dba2b98b4ec6cULL, 0xe6dfac81f9dd5a02ULL},
    {0x4499433ad3a356a5ULL, 0x59a8e2edf925d906ULL},
    {0xc723574d55d97800ULL, 0x426218738c29fc15ULL},
    {0x3d26dcc21010e36dULL, 0x12337f907f7f9ab2ULL},
    {0x1279169c52de1434ULL, 0xb7a83fba868dc638ULL},
    {0xb975e6e38d05b405ULL, 0x6944309d0839df2eULL},
    {0x7619183f54b41fb6ULL, 0x086e3ccae30f3969ULL},
    {0x0c4a0c5757c0d358ULL, 0x79942b98fc193d10ULL},
    {0x835e03c68962d4d6ULL, 0x72d96cdbde226f64ULL},
    {0x230b1ea06a9489e5ULL, 0x76e34eccd813620fULL},
    {0xc4c41577a5053c04ULL, 0xcc66157d72413b6bULL},
    {0x69a6917a56773dc1ULL, 0xb5b3c7463d3406deULL},
    {0x55db19df865fbffcULL, 0x5cbaf21f10a7162cULL},
    {0x3c3fbebf6fb96e52ULL, 0x43a2198da472342dULL},
    {0x59b0d83523a9b57eULL, 0x68f99b26ccfc73f6ULL},
    {0x81c12f6e9cc8e3cdULL, 0x15fcc27dc58c67eaULL},
    {0x6d15e3da7a789a9eULL, 0xffba89c4560f4906ULL},
    {0xb18483ddcfb7bd5dULL, 0x668371b984aa5142ULL},
    {0xbb160281417b374cULL, 0x1ce96dbaa2719dadULL},
    {0xd8a5c93ca0065b6dULL, 0x45e5df15e33242b2ULL},
    {0xd01656e6207242d5ULL, 0xe6afcb600c2e27cdULL},
    {0xa90bff884b2063caULL, 0x5001b4eb1efc10cdULL},
    {0x946890fc9f9996b6ULL, 0x3f616e14d0f8b951ULL},
    {0x8ecc3fa70c4ba035ULL, 0x6476b5eded48f4ddULL},
    {0x65a99d3bfca6c45aULL, 0x34f790b7199ea8a5ULL},
    {0x7e9a0a123ed7dcb4ULL, 0x4b3e2118f67e67f6ULL},
    {0x1df31e1a46e58d5fULL, 0x3b21d93bd65cc2aeULL},
    {0x11b284f6bea7dc7fULL, 0x1cbc692bed704b8eULL},
    {0x07c013300d1b21e4ULL, 0x494fbba2aa4fc8ecULL},
    {0xa2a9e6535d314696ULL, 0x5012dbb7e30603f1ULL},
    {0xbf1be70a7de3a49dULL, 0x812c05a7d3b48ac6ULL},
    {0x4be1e1242d879f47ULL, 0x4bae6cfaa643414cULL},
    {0x2d80b0cce2fd2f53ULL, 0x4669a73e51246edbULL},
    {0xfcef25c2d21f51efULL, 0x4b849221de83d678ULL},
    {0x18f0c49943fb4f8fULL, 0x21348bdc6065751eULL},
    {0x4c680c2c3a714ca3ULL, 0x074b253de6f616ccULL},
    {0x69b74817b9bbcee1ULL, 0x487f3c38de2c4ee8ULL},
    {0xbc85705d55a07cf7ULL, 0xd07d453ea8bc9690ULL},
    {0x10d3bd070d547fe4ULL, 0x4a6860665af6070bULL},
    {0x53d61981f7ab2d44ULL, 0xf320e8b232244aabULL},
    {0x0c567f98dc216cf2ULL, 0xe1f4393d74b90f8dULL},
    {0x80e6e8f838576e15ULL, 0x08974e2992e0a0afULL},
    {0x09d52f0333b776deULL, 0x072f7f067c399a96ULL},
    {0x7e98ffa929f236bcULL, 0x1e9120b707eb95ebULL},
    {0x776e82bcd1267cc8ULL, 0x888835b84306293fULL},
    {0x25c8c1b160dd5c1eULL, 0x54e95bd9146f6a80ULL},
    {0xaf4d673a8b4e8aafULL, 0x3655428bfdf6fea0ULL},
    {0x33e661b29a076bffULL, 0x0fb12c3214546732ULL},
    {0x092e1047857bffe4ULL, 0x198593fa50269c79ULL},
    {0x8cfbd4ff865c1438ULL, 0x5bf66838c9afd7b8ULL},
    {0x7363c685100dbd9cULL, 0x22dd398ac94b058aULL},
    {0x7cab9918919bf2b1ULL, 0xe649c179b4cc7f32ULL},
    {0x635f20dcc33584a3ULL, 0xf2d14e4e2137c9f7ULL},
    {0xc701aa278d730879ULL, 0xac6882d6047d2c2cULL},
    {0xbb72592d56162e75ULL, 0xa5479a43663a64c1ULL},
    {0x866b40e03f996850ULL, 0x3311c556b4133c20ULL},
    {0xc925415763fb26eaULL, 0x00c27bd2ef0c9bf5ULL},
    {0x1a088676fd62e8afULL, 0x4300d0a9d8ebd638ULL},
    {0x91fbaa3f6cdde554ULL, 0x189c42801436a975ULL},
    {0x8b30c0196266e0b7ULL, 0xf19b0cb321b4d7e9ULL},
    {0x959ce8ab2ea96949ULL, 0x90933bf8facc5845ULL},
    {0xf172c35ffb6e0818ULL, 0xf5765f66773e8ce7ULL},
    {0xde36458a15343ee5ULL, 0x27395c1234911768ULL},
    {0xc5463bedaafa9342ULL, 0xdad2499fc4e88e9fULL},
    {0x7028a032558dd3c2ULL, 0xc5d0e4a5b618cdbbULL},
    {0xb28cead216af2f37ULL, 0x5391b4af933d98c7ULL},
    {0x68bc8786a8cd1ecbULL, 0xb185e1939317ea44ULL},
    {0xa14c57608b920787ULL, 0x2df5d28a9bdb8ca8ULL},
    {0xb150a138f726ee0fULL, 0xfa376a60c0a36bb4ULL},
    {0xc4ba4b60fd60fc3fULL, 0xceb15af39bed9a44ULL},
    {0xd537c1c97d96cdb5ULL, 0xe8881892138273baULL},
    {0xa4b030f4d427ea0aULL, 0x56d460ff900288a7ULL},
    {0x7cb0885ca575a49cULL, 0xaccc4786864944deULL},
    {0xef6d0ed15c426bfaULL, 0x86973ec581adbb8dULL},
    {0x3fe46ca7e10e04eeULL, 0x24d68cf3daf18861ULL},
    {0x74dccb168503d9ccULL, 0x577f84f507e2624dULL},
    {0xdb1895d3f7ed721aULL, 0x93539058a9d6c517ULL},
    {0x47354503ca56d5b7ULL, 0xb26cc986e63e3f66ULL},
    {0x4bd865f150981b63ULL, 0xafa280eea9a1e348ULL},
    {0x145f98f506f60f3bULL, 0x2ebecf173966406cULL},
    {0xea189a47986b3726ULL, 0xad28b70b7374b361ULL},
    {0xc6560d0b0b49a256ULL, 0xa156e0ad5164ebb1ULL},
    {0xe320a9f9722654dcULL, 0x1447f84da9f87d6dULL},
    {0x4f03145ec3b9f4b7ULL, 0x29bc13c642200f97ULL},
    {0xea64b7cef86c6e68ULL, 0x2422124a0027635dULL},
    {0xb1ee1943cbf910a4ULL, 0x287cfe3709ee72cbULL},
    {0x109b54fde4098e63ULL, 0x793e00048161c345ULL},
    {0x21f12b8599447db1ULL, 0x8abe76a7da6fc1feULL},
    {0x1585f0fd6d40995eULL, 0xf648dfb25934d191ULL},
    {0x6f4712bb21cc70f8ULL, 0xe88783b1bbfbc387ULL},
    {0x5d887f476155de7eULL, 0x4f215564fd8a2771ULL},
    {0xfda144f0dc961d36ULL, 0x68ff920ae8b71f49ULL},
    {0x65b7d30faa5aa13eULL, 0x80a1a6ceb7d421a5ULL},
    {0x4615893c465463bbULL, 0x1efbdaf31be80c14ULL},
    {0x9d563b9736798557ULL, 0x1d2acfe4d877c93cULL},
    {0xc9a2c511bd1afc78ULL, 0xc403be46fcfed10fULL},
    {0xf8814b3cb6d6f10cULL, 0xe482b734d969ad43ULL},
    {0x0f84c88a2b60c3caULL, 0xd49f585d632ff3e7ULL},
    {0x2e5978ee868b936dULL, 0xe64fda463e5037caULL},
    {0xe40c90f99c8523bfULL, 0x4f8d85e5d784fb4eULL},
    {0xfb600f49be2402edULL, 0x0f46ab07c629dd32ULL},
    {0x56df552141a4bcfdULL, 0x17f4768a1cbfeb22ULL},
    {0xf5a962dbc55690d4ULL, 0x1b5fb16bfad43213ULL},
    {0x3f6b2063e7f928c3ULL, 0x93c4b3701c778868ULL},
    {0x9aa90934a7bef63cULL, 0xe2ab4972a8930351ULL},
    {0x9806456679b63497ULL, 0x6b27966c454e769eULL},
    {0x3bf9e78a6908b083ULL, 0x67c2e19b62e92ce8ULL},
    {0x9853c682b254da5cULL, 0x99039d9fe450c1d0ULL},
    {0xf0487986255b1744ULL, 0xde4426ed3230f8abULL},
    {0xe5684720d705f047ULL, 0x8a5b3dfb7b9bec4cULL},
    {0x14a689eb4748f084ULL, 0x58a39a71ac9b2e52ULL},
    {0xa6cc2403e072d2b0ULL, 0xc512b27a934acbdcULL},
    {0x66afc7fdf4b8730dULL, 0xf6d89c91ad2fbfb0ULL},
    {0x2713846987382705ULL, 0x514d9d1d98175d16ULL},
    {0x95badd16aec1cfa6ULL, 0x1d450f891e297be1ULL},
    {0xc1b01e2fa4f77d58ULL, 0x6ce6241d85521832ULL},
    {0x84209287faeafb1fULL, 0x52f65cbc7d2ee0eeULL},
    {0xa5b7941f9431e980ULL, 0x4b6bc651fcafa3e2ULL},
    {0x5162d55abed846c3ULL, 0x9a12d31a0ed396acULL},
    {0xc397a312ed860f2fULL, 0xd8a5029741ee6cb8ULL},
    {0x760d478f42f50956ULL, 0xd56f70051d1e0988ULL},
    {0xffe9634068363a04ULL, 0xb69166b3db7a0515ULL},
    {0x978c5b33c63fa69dULL, 0x5fa441ff7de6c04cULL},
    {0xdc3e5e55535c001fULL, 0x1bd34c221ef1e7eeULL},
    {0x260c5b225bb3ac33ULL, 0x9981ca8e271a5f3aULL},
    {0x58e384c24cdf3b44ULL, 0x9fb76c4d207234b2ULL},
    {0x899ed7ec528f5a53ULL, 0xc10199d4e38c571cULL},
    {0xb794af4ee90481deULL, 0x57b2846d54abcf69ULL},
    {0x7d2b48f5c50c19a7ULL, 0x99f12e3cac0dd2f2ULL},
    {0xd7a6c05585c94f69ULL, 0x4fb01c5b1d27ec2bULL},
    {0xe74e240210805dbdULL, 0x9606e9bf5821da62ULL},
    {0x8f2f1cc998acc005ULL, 0x3b7bdab201068169ULL},
    {0xc5b81a1adbca0f8cULL, 0xe9f661fa6394b96eULL},
    {0x08c7eaa6c40c5794ULL, 0xac6ab5dbcdfe17bbULL},
    {0x78e3cdb993971229ULL, 0x6a5e647228f38665ULL},
    {0xb66ce2119429f4eeULL, 0xf0619bfe4a8d8712ULL},
    {0xc88f115ee0390cb6ULL, 0xff8238356447b869ULL},
    {0x290e9f5d127f199aULL, 0xb26cfb2aad187fdeULL},
    {0xb5fc34aa9dab8a15ULL, 0x63d4ffc713d7ffdaULL},
    {0x67c73e45d2eacaf0ULL, 0xaab42ee1c586efa4ULL},
    {0xb81872f4efbd1ac8ULL, 0xf1289390d504befdULL},
    {0x85ab9c6279a83c45ULL, 0x928a8a04bf4b47b2ULL},
    {0x9e65f9162420f6d0ULL, 0xa7b6757d47c70a05ULL},
    {0x8509000f26864075ULL, 0x94e946c1ca7b1a02ULL},
    {0xa0b385411994e856ULL, 0xb436a8996487e81eULL},
    {0x546688c15cb40184ULL, 0x0bb71265ba5b34d9ULL},
    {0xa22b261f1136e2c8ULL, 0x29cda4c990e31428ULL},
    {0xb7445227a86c0bf0ULL, 0x26c314ecb94a1808ULL},
    {0xbe885b8115ec75f4ULL, 0x7155952a83bdb306ULL},
    {0x626b5010f48b2236ULL, 0x5ed34e453e969a82ULL},
    {0x38940f367fd3fca5ULL, 0x105fd87683c3f122ULL},
    {0xba35e9f5d5440ef7ULL, 0xbda7815d2b804cb2ULL},
    {0xf32ee67338bcc310ULL, 0xed412decc329bd49ULL},
    {0xcf73b5520f24210dULL, 0x2b6ac83fcc05ff92ULL},
    {0xd8c31edfa9c24f52ULL, 0xfc9f7ccb90ad8a0fULL},
    {0xb7e8cf2d4f1705ecULL, 0x7aed52a8d5845889ULL},
    {0x062da1c78c2ff10aULL, 0xb0c3d8fb2cc8c655ULL},
    {0xacd4b3d6a204b01dULL, 0xfb71d78b563da888ULL},
    {0x32240fdc4ec368e1ULL, 0x7c110084a4f080d8ULL},
    {0x0c25fc4176719dc2ULL, 0x50eef1e2cc2843fdULL},
    {0x00806a8a6c2f0bb3ULL, 0x7bcb194e1124b1baULL},
    {0x4b50f1c99ac963feULL, 0x286c3e610334e6c9ULL},
    {0x435b07a4a1c5c1a2ULL, 0x02ed49c6f9a4691dULL},
    {0xde8b523f0818087fULL, 0x0356171873dea104ULL},
    {0x53f7e1fdf561a9a9ULL, 0xf92c45342e3b4d76ULL},
    {0x6fb6f483b5a08fabULL, 0x4fac23fa5bf9de92ULL},
    {0x509c898ee9f7f0c2ULL, 0x2dbc0416fb971b1fULL},
    {0x51c81fffdbaf5517ULL, 0x9b4954c8ac5aef79ULL},
    {0xe5e0d8e7eb4874deULL, 0xa9e50c5db2458547ULL},
    {0xc5f218c2c0100d74ULL, 0xcc1afc5413d468daULL},
    {0x4319213b808bb573ULL, 0xb39bc5c349cab5b8ULL},
    {0xb2adef4a782f8653ULL, 0xb87b9db471ba219bULL},
    {0x05b6317d6cb4ed60ULL, 0xb135fbc6da751116ULL},
    {0x29cae7b1f23e2416ULL, 0x2ac60a26c4a84503ULL},
    {0x31a9c685605fad79ULL, 0xfc6149b5a3f7d8e0ULL},
    {0x81549207b939fbf5ULL, 0x1bd7a7f4ab5a5780ULL},
    {0xa58efc423670642dULL, 0xe25be82e739015d8ULL},
    {0x3c8732c55b6ea8c7ULL, 0xfdf211b066427280ULL},
    {0xdc1843c6c517a785ULL, 0x6ddb7c8ff2d61aaaULL},
    {0xa5b6c816dd34f6cbULL, 0xab2292352164f389ULL},
    {0x249bebd5f34be82bULL, 0xf8a3a375b28b3864ULL},
    {0x8643440afeae96adULL, 0x6d39bd6c922bf7d8ULL},
    {0xbfecabd55712dec2ULL, 0x1f8f60026013f51fULL},
    {0xc1ec7d979ae50b9bULL, 0xe6616975fec3f7a0ULL},
    {0xf74998c5eef18f4bULL, 0x1f95c7b9a517e070ULL},
    {0x629e65f9218ba6ffULL, 0x96f018db5dedea68ULL},
};
// clang-format on

TEST(SpecTextGolden, ExampleSpecsKeepTheirKeysAndCanonicalText) {
  const auto specs = test_support::example_specs();
  if (print_mode()) {
    for (const auto& file : specs) {
      const ScenarioSpec spec = parse_scenario(file.text);
      std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n", file.name.c_str(),
                  static_cast<unsigned long long>(spec.key()),
                  static_cast<unsigned long long>(fnv1a(format_scenario(spec))));
    }
    return;
  }
  ASSERT_EQ(specs.size(), std::size(kFiles)) << "record new example specs here";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    ASSERT_EQ(specs[i].name, kFiles[i].name);
    const ScenarioSpec spec = parse_scenario(specs[i].text);
    const std::string text = format_scenario(spec);
    EXPECT_EQ(spec.key(), kFiles[i].key);
    EXPECT_EQ(fnv1a(text), kFiles[i].text_fnv);
    EXPECT_EQ(format_scenario(parse_scenario(text)), text);
  }
}

TEST(SpecTextGolden, RandomSpecsKeepTheirKeysAndCanonicalText) {
  std::mt19937_64 rng(0x5EC7E47);
  for (int i = 0; i < kRandomSpecs; ++i) {
    const ScenarioSpec spec = random_spec(i, rng);
    const std::string text = format_scenario(spec);
    if (print_mode()) {
      std::printf("    {0x%016llxULL, 0x%016llxULL},\n",
                  static_cast<unsigned long long>(spec.key()),
                  static_cast<unsigned long long>(fnv1a(text)));
      continue;
    }
    SCOPED_TRACE("random spec " + std::to_string(i) + ":\n" + text);
    EXPECT_EQ(spec.key(), kRandom[i].key);
    EXPECT_EQ(fnv1a(text), kRandom[i].text_fnv);
    EXPECT_EQ(format_scenario(parse_scenario(text)), text);
  }
}

}  // namespace
}  // namespace kncube::core
