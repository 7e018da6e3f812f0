// On-disk result store format tests: reopen round trips are bit-identical,
// a corrupt, truncated or wrongly sized tail is tolerated, a store version
// or format mismatch invalidates cleanly, and an engine restarted onto the
// same file answers without re-solving.
#include "service/disk_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep_engine.hpp"

namespace kncube::service {
namespace {

constexpr std::uint64_t kVersionA = 0x1111222233334444ULL;
constexpr std::uint64_t kVersionB = 0x5555666677778888ULL;

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

core::ModelEntry make_entry(double base) {
  core::ModelEntry e;
  e.result.latency = base;
  e.result.saturated = false;
  e.result.converged = true;
  e.result.iterations = 7;
  // Irrational-ish values: any decimal round trip would change the bits.
  e.result.regular_latency = base / 3.0;
  e.result.hot_latency = base / 7.0;
  return e;
}

sim::SimResult make_sim(double base) {
  sim::SimResult r;
  r.mean_latency = base;
  r.latency_ci95 = base / 13.0;
  r.measured_messages = 1234;
  r.cycles = 99999;
  r.steady = true;
  return r;
}

class DiskStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("disk_store_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".kncs";
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void corrupt_last_byte() {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f);
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) - 1);
    char b = 0;
    f.seekg(static_cast<std::streamoff>(size) - 1);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(size) - 1);
    f.write(&b, 1);
  }

  std::string path_;
};

TEST_F(DiskStoreTest, ReopenRoundTripIsBitIdentical) {
  const core::ModelEntry entry = make_entry(1.0 / 3.0);
  const sim::SimResult sim = make_sim(2.0 / 7.0);
  core::SaturationResult sat;
  sat.rate = 1.0 / 13.0;
  sat.probes = 17;
  {
    DiskResultStore store(path_, kVersionA);
    EXPECT_EQ(store.loaded_records(), 0u);
    store.store_model(0xA, bits(0.25), entry);
    store.store_sim(0xA, bits(0.5), 42, sim);
    store.store_saturation(0xA, bits(1e-3), sat);
  }
  DiskResultStore store(path_, kVersionA);
  EXPECT_FALSE(store.invalidated());
  EXPECT_EQ(store.loaded_records(), 3u);
  EXPECT_EQ(store.dropped_bytes(), 0u);

  core::ModelEntry got_entry;
  ASSERT_TRUE(store.load_model(0xA, bits(0.25), &got_entry));
  EXPECT_EQ(bits(got_entry.result.latency), bits(entry.result.latency));
  EXPECT_EQ(bits(got_entry.result.regular_latency),
            bits(entry.result.regular_latency));
  EXPECT_EQ(bits(got_entry.result.hot_latency), bits(entry.result.hot_latency));
  EXPECT_EQ(got_entry.result.saturated, entry.result.saturated);
  EXPECT_EQ(got_entry.result.converged, entry.result.converged);
  EXPECT_EQ(got_entry.result.iterations, entry.result.iterations);

  sim::SimResult got_sim;
  ASSERT_TRUE(store.load_sim(0xA, bits(0.5), 42, &got_sim));
  EXPECT_EQ(bits(got_sim.mean_latency), bits(sim.mean_latency));
  EXPECT_EQ(bits(got_sim.latency_ci95), bits(sim.latency_ci95));
  EXPECT_EQ(got_sim.measured_messages, sim.measured_messages);
  EXPECT_EQ(got_sim.cycles, sim.cycles);
  EXPECT_EQ(got_sim.steady, sim.steady);

  core::SaturationResult got_sat;
  ASSERT_TRUE(store.load_saturation(0xA, bits(1e-3), &got_sat));
  EXPECT_EQ(bits(got_sat.rate), bits(sat.rate));
  EXPECT_EQ(got_sat.probes, sat.probes);

  // Misses stay misses: other keys and other spec keys.
  core::ModelEntry miss;
  EXPECT_FALSE(store.load_model(0xA, bits(0.125), &miss));
  EXPECT_FALSE(store.load_model(0xB, bits(0.25), &miss));
}

TEST_F(DiskStoreTest, TruncatedTailIsDroppedAndStoreStaysUsable) {
  {
    DiskResultStore store(path_, kVersionA);
    store.store_model(1, bits(0.1), make_entry(0.1));
    store.store_model(1, bits(0.2), make_entry(0.2));
    store.store_model(1, bits(0.3), make_entry(0.3));
  }
  // A crash mid-append leaves a torn record at the end of the file.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 5);
  {
    DiskResultStore store(path_, kVersionA);
    EXPECT_FALSE(store.invalidated());
    EXPECT_EQ(store.loaded_records(), 2u);
    EXPECT_GT(store.dropped_bytes(), 0u);
    core::ModelEntry got;
    EXPECT_TRUE(store.load_model(1, bits(0.1), &got));
    EXPECT_TRUE(store.load_model(1, bits(0.2), &got));
    EXPECT_FALSE(store.load_model(1, bits(0.3), &got));
    // The tail was removed, so new appends land on a clean boundary.
    store.store_model(1, bits(0.3), make_entry(0.3));
  }
  DiskResultStore store(path_, kVersionA);
  EXPECT_FALSE(store.invalidated());
  EXPECT_EQ(store.loaded_records(), 3u);
  EXPECT_EQ(store.dropped_bytes(), 0u);
  core::ModelEntry got;
  EXPECT_TRUE(store.load_model(1, bits(0.3), &got));
  EXPECT_EQ(bits(got.result.latency), bits(0.3));
}

TEST_F(DiskStoreTest, ChecksumCatchesACorruptPayloadByte) {
  {
    DiskResultStore store(path_, kVersionA);
    store.store_model(1, bits(0.1), make_entry(0.1));
    store.store_model(1, bits(0.2), make_entry(0.2));
  }
  corrupt_last_byte();
  DiskResultStore store(path_, kVersionA);
  EXPECT_FALSE(store.invalidated());
  EXPECT_EQ(store.loaded_records(), 1u);
  EXPECT_GT(store.dropped_bytes(), 0u);
  core::ModelEntry got;
  EXPECT_TRUE(store.load_model(1, bits(0.1), &got));
  EXPECT_FALSE(store.load_model(1, bits(0.2), &got));
}

TEST_F(DiskStoreTest, VersionMismatchInvalidatesCleanly) {
  {
    DiskResultStore store(path_, kVersionA);
    store.store_model(1, bits(0.1), make_entry(0.1));
  }
  {
    // The result-producing code changed: everything cached is stale.
    DiskResultStore store(path_, kVersionB);
    EXPECT_TRUE(store.invalidated());
    EXPECT_EQ(store.loaded_records(), 0u);
    const core::StoreSizes sizes = store.sizes();
    EXPECT_EQ(sizes.model, 0u);
    EXPECT_EQ(sizes.sim, 0u);
    EXPECT_EQ(sizes.saturation, 0u);
    store.store_model(1, bits(0.1), make_entry(0.5));
  }
  // The rewritten file carries the new version and loads normally.
  DiskResultStore store(path_, kVersionB);
  EXPECT_FALSE(store.invalidated());
  EXPECT_EQ(store.loaded_records(), 1u);
  core::ModelEntry got;
  ASSERT_TRUE(store.load_model(1, bits(0.1), &got));
  EXPECT_EQ(bits(got.result.latency), bits(0.5));
}

TEST_F(DiskStoreTest, FormatOneHeaderInvalidatesEvenWithTheCurrentVersion) {
  {
    DiskResultStore store(path_, kVersionA);
    store.store_model(1, bits(0.1), make_entry(0.1));
  }
  // Rewrite the header's format field (the u32 after the magic) to 1: the
  // store version matches, but format-1 model records carried a solver
  // state this build cannot read.
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f);
    const std::uint32_t format_one = 1;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&format_one), sizeof(format_one));
  }
  {
    DiskResultStore store(path_, kVersionA);
    EXPECT_TRUE(store.invalidated());
    EXPECT_EQ(store.loaded_records(), 0u);
    EXPECT_EQ(store.sizes().model, 0u);
  }
  DiskResultStore reopened(path_, kVersionA);
  EXPECT_FALSE(reopened.invalidated());
}

TEST_F(DiskStoreTest, ModelRecordOfTheWrongSizeIsDroppedAsTheTail) {
  {
    DiskResultStore store(path_, kVersionA);
    store.store_model(1, bits(0.1), make_entry(0.1));
  }
  const auto intact = std::filesystem::file_size(path_);
  // A well-formed, correctly checksummed model record whose payload is a
  // valid format-1 one (ModelResult, a u64 state count of 2, two doubles)
  // rather than exactly one ModelEntry.
  const model::ModelResult result = make_entry(0.2).result;
  const std::uint64_t count = 2;
  const double state[2] = {0.5, 0.25};
  std::vector<unsigned char> payload(sizeof(result) + sizeof(count) + sizeof(state));
  std::memcpy(payload.data(), &result, sizeof(result));
  std::memcpy(payload.data() + sizeof(result), &count, sizeof(count));
  std::memcpy(payload.data() + sizeof(result) + sizeof(count), state, sizeof(state));
  std::uint64_t checksum = 0xcbf29ce484222325ULL;  // FNV-1a, as the store
  for (const unsigned char b : payload) {
    checksum ^= b;
    checksum *= 0x100000001b3ULL;
  }
  struct {  // the record header layout documented in disk_store.hpp
    std::uint32_t magic = 0x44524352u;  // "RCRD"
    std::uint32_t type = 1;             // model
    std::uint64_t spec_key = 1;
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    std::uint32_t payload_size = 0;
    std::uint32_t reserved = 0;
    std::uint64_t checksum = 0;
  } rec;
  rec.k1 = bits(0.2);
  rec.payload_size = static_cast<std::uint32_t>(payload.size());
  rec.checksum = checksum;
  {
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    f.write(reinterpret_cast<const char*>(&rec), sizeof(rec));
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  }
  {
    DiskResultStore store(path_, kVersionA);
    EXPECT_FALSE(store.invalidated());
    EXPECT_EQ(store.loaded_records(), 1u);
    EXPECT_EQ(store.dropped_bytes(), sizeof(rec) + payload.size());
    core::ModelEntry got;
    EXPECT_TRUE(store.load_model(1, bits(0.1), &got));
    EXPECT_FALSE(store.load_model(1, bits(0.2), &got));
  }
  EXPECT_EQ(std::filesystem::file_size(path_), intact);
}

TEST_F(DiskStoreTest, ForeignFileInvalidatesInsteadOfCrashing) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "this is not a kncube result store\n";
  }
  DiskResultStore store(path_, kVersionA);
  EXPECT_TRUE(store.invalidated());
  EXPECT_EQ(store.loaded_records(), 0u);
  store.store_model(1, bits(0.1), make_entry(0.1));
  DiskResultStore reopened(path_, kVersionA);
  EXPECT_FALSE(reopened.invalidated());
  EXPECT_EQ(reopened.loaded_records(), 1u);
}

TEST_F(DiskStoreTest, ClearEmptiesIndexAndFile) {
  {
    DiskResultStore store(path_, kVersionA);
    store.store_model(1, bits(0.1), make_entry(0.1));
    store.store_sim(1, bits(0.1), 7, make_sim(0.2));
    store.clear();
    const core::StoreSizes sizes = store.sizes();
    EXPECT_EQ(sizes.model, 0u);
    EXPECT_EQ(sizes.sim, 0u);
  }
  DiskResultStore store(path_, kVersionA);
  EXPECT_FALSE(store.invalidated());
  EXPECT_EQ(store.loaded_records(), 0u);
}

TEST_F(DiskStoreTest, DuplicateStoresAppendOnlyOneRecord) {
  {
    DiskResultStore store(path_, kVersionA);
    store.store_model(1, bits(0.1), make_entry(0.1));
    // A raced second writer of the same key must not bloat the file — and
    // must not replace the first entry (first write wins, like the memo).
    store.store_model(1, bits(0.1), make_entry(0.9));
  }
  DiskResultStore store(path_, kVersionA);
  EXPECT_EQ(store.loaded_records(), 1u);
  core::ModelEntry got;
  ASSERT_TRUE(store.load_model(1, bits(0.1), &got));
  EXPECT_EQ(bits(got.result.latency), bits(0.1));
}

// The acceptance pin: an engine restarted onto the same store file answers
// bit-identically to a cold in-process computation, without re-solving.
TEST_F(DiskStoreTest, EngineRestartServesBitIdenticalResultsWithoutResolving) {
  core::ScenarioSpec spec;
  spec.torus().k = 8;
  spec.message_length = 8;
  spec.hotspot().fraction = 0.3;
  spec.target_messages = 500;
  spec.warmup_cycles = 2000;
  spec.max_cycles = 300000;

  const double lambda = 2e-4;
  const std::uint64_t seed = 99;

  // Cold reference: a private in-memory engine, no disk involved.
  core::SweepEngine cold(spec);
  const model::ModelResult cold_model = cold.model_point(lambda);
  const sim::SimResult cold_sim = cold.sim_point(lambda, seed);

  {
    core::SweepEngine writer(spec,
                             std::make_shared<DiskResultStore>(path_, kVersionA));
    writer.model_point(lambda);
    writer.sim_point(lambda, seed);
    EXPECT_EQ(writer.cache_stats().model_solves, 1u);
  }

  // "Restart": a new process would do exactly this — fresh engine, reopened
  // file.
  core::SweepEngine restarted(
      spec, std::make_shared<DiskResultStore>(path_, kVersionA));
  const model::ModelResult warm_model = restarted.model_point(lambda);
  const sim::SimResult warm_sim = restarted.sim_point(lambda, seed);

  const core::CacheStats stats = restarted.cache_stats();
  EXPECT_EQ(stats.model_solves, 0u);
  EXPECT_EQ(stats.sim_runs, 0u);
  EXPECT_EQ(stats.model_hits, 1u);
  EXPECT_EQ(stats.sim_hits, 1u);

  EXPECT_EQ(bits(warm_model.latency), bits(cold_model.latency));
  EXPECT_EQ(bits(warm_model.regular_latency), bits(cold_model.regular_latency));
  EXPECT_EQ(bits(warm_model.hot_latency), bits(cold_model.hot_latency));
  EXPECT_EQ(warm_model.iterations, cold_model.iterations);
  EXPECT_EQ(bits(warm_sim.mean_latency), bits(cold_sim.mean_latency));
  EXPECT_EQ(bits(warm_sim.latency_ci95), bits(cold_sim.latency_ci95));
  EXPECT_EQ(warm_sim.measured_messages, cold_sim.measured_messages);
  EXPECT_EQ(warm_sim.cycles, cold_sim.cycles);
}

}  // namespace
}  // namespace kncube::service
