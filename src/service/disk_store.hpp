// DiskResultStore: the append-only, versioned, disk-backed ResultStore.
//
// One file holds every cached result across all scenarios (entries are
// keyed by the spec's canonical key(), so the daemon points every engine at
// one shared store). The format is a fixed header followed by self-checking
// append-only records:
//
//   header : magic "KNCS" | format u32 | store-version u64
//   record : magic "RCRD" | type u32 | spec_key u64 | k1 u64 | k2 u64
//          | payload_size u32 | reserved u32 | fnv1a64(payload) u64
//          | payload bytes
//
// where (type, k1, k2) is (model, lambda bits, 0), (sim, lambda bits, seed)
// or (saturation, rel_tol bits, 0), and every payload is the raw bytes of
// one trivially-copyable struct (core::ModelEntry, sim::SimResult,
// core::SaturationResult), so a record's size is fixed by its type. Raw
// bytes make a store hit trivially bit-identical to the solve that produced
// it — the whole point of the cache (tests/service/disk_store_test pins a
// reopen round trip against a cold solve).
//
// Robustness contract:
//  * header mismatch (foreign file, older format, different store version —
//    i.e. result-producing code changed, see service/store_version.hpp):
//    the store self-invalidates — previous contents are discarded and the
//    file restarts fresh; `invalidated()` reports it.
//  * corrupt, truncated or wrongly sized record (crash mid-append, bit rot
//    caught by the checksum): loading stops at the last intact record, the
//    bad tail is dropped (`dropped_bytes()`), and the store stays fully
//    usable.
//
// Appends go through an in-memory MemoryResultStore index (all queries are
// served from memory; the file is only read at open). Records are flushed
// to the OS on every append; flush() is called again on shutdown. The file
// is host-native byte order — it is a local cache, not an interchange
// format.
//
// Single-writer: one process (the daemon) owns a store file at a time;
// concurrent writers would interleave records. Within the process every
// method is thread-safe.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "core/result_store.hpp"
#include "service/store_version.hpp"

namespace kncube::service {

class DiskResultStore final : public core::ResultStore {
 public:
  /// Opens (creating if absent) the store at `path`. `version` defaults to
  /// the build's store_version(); tests inject explicit values to exercise
  /// invalidation. Throws std::runtime_error when the file cannot be
  /// opened for writing.
  explicit DiskResultStore(std::string path,
                           std::uint64_t version = store_version());
  ~DiskResultStore() override;

  bool load_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                  core::ModelEntry* out) override;
  void store_model(std::uint64_t spec_key, std::uint64_t lambda_bits,
                   const core::ModelEntry& entry) override;
  bool load_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                std::uint64_t seed, sim::SimResult* out) override;
  void store_sim(std::uint64_t spec_key, std::uint64_t lambda_bits,
                 std::uint64_t seed, const sim::SimResult& result) override;
  bool load_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                       core::SaturationResult* out) override;
  void store_saturation(std::uint64_t spec_key, std::uint64_t tol_bits,
                        const core::SaturationResult& result) override;
  core::StoreSizes sizes() const override;
  void clear() override;
  void flush() override;
  const char* kind() const noexcept override { return "disk"; }

  const std::string& path() const noexcept { return path_; }
  std::uint64_t version() const noexcept { return version_; }

  // --- open-time diagnostics (logs, tests) ---
  /// True when an existing file was discarded for a header/format/version
  /// mismatch.
  bool invalidated() const noexcept { return invalidated_; }
  /// Intact records loaded from the existing file.
  std::uint64_t loaded_records() const noexcept { return loaded_records_; }
  /// Bytes of corrupt/truncated tail dropped from the existing file.
  std::uint64_t dropped_bytes() const noexcept { return dropped_bytes_; }

 private:
  void load_file();
  void start_fresh();
  void append_record(std::uint32_t type, std::uint64_t spec_key,
                     std::uint64_t k1, std::uint64_t k2, const void* payload,
                     std::uint32_t size);

  std::string path_;
  std::uint64_t version_;
  core::MemoryResultStore index_;

  std::mutex file_mutex_;
  std::ofstream out_;
  bool invalidated_ = false;
  std::uint64_t loaded_records_ = 0;
  std::uint64_t dropped_bytes_ = 0;
};

}  // namespace kncube::service
