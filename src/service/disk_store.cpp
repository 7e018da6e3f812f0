#include "service/disk_store.hpp"

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace kncube::service {

namespace {

// Every payload is raw struct bytes; the contract only works for
// trivially-copyable results. The store version covers layout changes: any
// edit to these headers changes the hash and invalidates old files.
static_assert(std::is_trivially_copyable_v<core::ModelEntry>);
static_assert(std::is_trivially_copyable_v<sim::SimResult>);
static_assert(std::is_trivially_copyable_v<core::SaturationResult>);

constexpr std::uint32_t kFileMagic = 0x53434E4Bu;    // "KNCS" little-endian
constexpr std::uint32_t kRecordMagic = 0x44524352u;  // "RCRD" little-endian
// The record layout lives in this directory, which the store-version hash
// does not cover (CMakeLists.txt hashes core, model, sim and topology), so
// any change to it must bump the format.
constexpr std::uint32_t kFormat = 2;
// Sanity cap on one record's payload: every real payload is one fixed-size
// result struct; anything huge is corruption, not data.
constexpr std::uint32_t kMaxPayload = 1u << 24;

constexpr std::uint32_t kTypeModel = 1;
constexpr std::uint32_t kTypeSim = 2;
constexpr std::uint32_t kTypeSaturation = 3;

struct FileHeader {
  std::uint32_t magic = kFileMagic;
  std::uint32_t format = kFormat;
  std::uint64_t version = 0;
};

struct RecordHeader {
  std::uint32_t magic = kRecordMagic;
  std::uint32_t type = 0;
  std::uint64_t spec_key = 0;
  std::uint64_t k1 = 0;
  std::uint64_t k2 = 0;
  std::uint32_t payload_size = 0;
  std::uint32_t reserved = 0;
  std::uint64_t checksum = 0;
};
static_assert(std::is_trivially_copyable_v<FileHeader>);
static_assert(std::is_trivially_copyable_v<RecordHeader>);

std::uint64_t fnv1a64(const unsigned char* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Reads sizeof(T) bytes at `offset` into `*value`; false past the end.
template <typename T>
bool read_at(const std::vector<unsigned char>& buf, std::size_t offset,
             T* value) {
  if (offset + sizeof(T) > buf.size()) return false;
  std::memcpy(value, buf.data() + offset, sizeof(T));
  return true;
}

/// Replays one fixed-size payload into `*value`; false on a size mismatch.
template <typename T>
bool read_payload(const unsigned char* payload, std::uint32_t size, T* value) {
  if (size != sizeof(T)) return false;
  std::memcpy(value, payload, sizeof(T));
  return true;
}

}  // namespace

DiskResultStore::DiskResultStore(std::string path, std::uint64_t version)
    : path_(std::move(path)), version_(version) {
  load_file();
}

DiskResultStore::~DiskResultStore() {
  std::lock_guard<std::mutex> lock(file_mutex_);
  if (out_.is_open()) out_.flush();
}

void DiskResultStore::load_file() {
  std::vector<unsigned char> buf;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      in.seekg(0, std::ios::end);
      const auto size = in.tellg();
      in.seekg(0, std::ios::beg);
      if (size > 0) {
        buf.resize(static_cast<std::size_t>(size));
        in.read(reinterpret_cast<char*>(buf.data()),
                static_cast<std::streamsize>(buf.size()));
        if (!in) buf.clear();  // unreadable: treat as absent
      }
    }
  }

  FileHeader header;
  if (!buf.empty()) {
    if (!read_at(buf, 0, &header) || header.magic != kFileMagic ||
        header.format != kFormat || header.version != version_) {
      // Foreign file, older format, or result-producing code changed:
      // everything in it is (potentially) stale — discard, start fresh.
      invalidated_ = true;
      start_fresh();
      return;
    }
  } else {
    start_fresh();
    return;
  }

  // Replay records until the buffer ends or stops making sense; the first
  // bad record invalidates everything after it (append-only: a bad byte
  // means a torn write or corruption, and record boundaries downstream of
  // it cannot be trusted).
  std::size_t off = sizeof(FileHeader);
  std::size_t good_end = off;
  while (off < buf.size()) {
    RecordHeader rec;
    if (!read_at(buf, off, &rec)) break;
    if (rec.magic != kRecordMagic || rec.payload_size > kMaxPayload) break;
    const std::size_t payload_off = off + sizeof(RecordHeader);
    if (payload_off + rec.payload_size > buf.size()) break;
    const unsigned char* payload = buf.data() + payload_off;
    if (fnv1a64(payload, rec.payload_size) != rec.checksum) break;
    bool ok = false;
    switch (rec.type) {
      case kTypeModel: {
        core::ModelEntry entry;
        ok = read_payload(payload, rec.payload_size, &entry);
        if (ok) index_.store_model(rec.spec_key, rec.k1, entry);
        break;
      }
      case kTypeSim: {
        sim::SimResult r;
        ok = read_payload(payload, rec.payload_size, &r);
        if (ok) index_.store_sim(rec.spec_key, rec.k1, rec.k2, r);
        break;
      }
      case kTypeSaturation: {
        core::SaturationResult r;
        ok = read_payload(payload, rec.payload_size, &r);
        if (ok) index_.store_saturation(rec.spec_key, rec.k1, r);
        break;
      }
      default:
        break;
    }
    if (!ok) break;
    ++loaded_records_;
    off = payload_off + rec.payload_size;
    good_end = off;
  }
  dropped_bytes_ = buf.size() - good_end;

  if (dropped_bytes_ > 0) {
    // Drop the corrupt tail before appending, so the damage cannot sit in
    // the middle of the file forever.
    std::error_code ec;
    std::filesystem::resize_file(path_, good_end, ec);
    if (ec) {
      // Cannot repair in place: fall back to a fresh file rather than
      // appending after garbage. Conservative — the loaded entries are
      // re-solvable; a half-garbage file is not re-trustable.
      invalidated_ = true;
      start_fresh();
      return;
    }
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("DiskResultStore: cannot open '" + path_ +
                             "' for append");
  }
}

void DiskResultStore::start_fresh() {
  index_.clear();
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("DiskResultStore: cannot open '" + path_ +
                             "' for writing");
  }
  FileHeader header;
  header.version = version_;
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.flush();
}

void DiskResultStore::append_record(std::uint32_t type, std::uint64_t spec_key,
                                    std::uint64_t k1, std::uint64_t k2,
                                    const void* payload, std::uint32_t size) {
  RecordHeader rec;
  rec.type = type;
  rec.spec_key = spec_key;
  rec.k1 = k1;
  rec.k2 = k2;
  rec.payload_size = size;
  rec.checksum = fnv1a64(static_cast<const unsigned char*>(payload), size);
  std::lock_guard<std::mutex> lock(file_mutex_);
  out_.write(reinterpret_cast<const char*>(&rec), sizeof(rec));
  out_.write(static_cast<const char*>(payload), size);
  // Flush every record: a killed daemon loses at most the torn tail the
  // loader is built to drop. (No fsync — this is a cache; the worst case
  // of losing buffered records is re-solving them.)
  out_.flush();
}

bool DiskResultStore::load_model(std::uint64_t spec_key,
                                 std::uint64_t lambda_bits,
                                 core::ModelEntry* out) {
  return index_.load_model(spec_key, lambda_bits, out);
}

void DiskResultStore::store_model(std::uint64_t spec_key,
                                  std::uint64_t lambda_bits,
                                  const core::ModelEntry& entry) {
  // Engines check the store before solving, but two engines can still race
  // the same key; keep the file free of duplicate records.
  core::ModelEntry existing;
  if (index_.load_model(spec_key, lambda_bits, &existing)) return;
  index_.store_model(spec_key, lambda_bits, entry);
  append_record(kTypeModel, spec_key, lambda_bits, 0, &entry, sizeof(entry));
}

bool DiskResultStore::load_sim(std::uint64_t spec_key,
                               std::uint64_t lambda_bits, std::uint64_t seed,
                               sim::SimResult* out) {
  return index_.load_sim(spec_key, lambda_bits, seed, out);
}

void DiskResultStore::store_sim(std::uint64_t spec_key,
                                std::uint64_t lambda_bits, std::uint64_t seed,
                                const sim::SimResult& result) {
  sim::SimResult existing;
  if (index_.load_sim(spec_key, lambda_bits, seed, &existing)) return;
  index_.store_sim(spec_key, lambda_bits, seed, result);
  append_record(kTypeSim, spec_key, lambda_bits, seed, &result, sizeof(result));
}

bool DiskResultStore::load_saturation(std::uint64_t spec_key,
                                      std::uint64_t tol_bits,
                                      core::SaturationResult* out) {
  return index_.load_saturation(spec_key, tol_bits, out);
}

void DiskResultStore::store_saturation(std::uint64_t spec_key,
                                       std::uint64_t tol_bits,
                                       const core::SaturationResult& result) {
  core::SaturationResult existing;
  if (index_.load_saturation(spec_key, tol_bits, &existing)) return;
  index_.store_saturation(spec_key, tol_bits, result);
  append_record(kTypeSaturation, spec_key, tol_bits, 0, &result, sizeof(result));
}

core::StoreSizes DiskResultStore::sizes() const { return index_.sizes(); }

void DiskResultStore::clear() {
  std::lock_guard<std::mutex> lock(file_mutex_);
  if (out_.is_open()) out_.close();
  start_fresh();
}

void DiskResultStore::flush() {
  std::lock_guard<std::mutex> lock(file_mutex_);
  if (out_.is_open()) out_.flush();
}

}  // namespace kncube::service
