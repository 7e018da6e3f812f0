#include "core/result_store.hpp"

#include <charconv>

namespace kncube::core {

std::string format_cache_stats(const CacheStats& s) {
  std::string out;
  out.reserve(192);
  for (const auto& [name, counter] : kCacheStatsFields) {
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    char buf[20];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), s.*counter);
    out.append(buf, end);
  }
  return out;
}

bool MemoryResultStore::load_model(std::uint64_t spec_key,
                                   std::uint64_t lambda_bits, ModelEntry* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = model_.find({spec_key, lambda_bits});
  if (it == model_.end()) return false;
  *out = it->second;
  return true;
}

void MemoryResultStore::store_model(std::uint64_t spec_key,
                                    std::uint64_t lambda_bits,
                                    const ModelEntry& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  model_.emplace(std::make_pair(spec_key, lambda_bits), entry);
}

bool MemoryResultStore::load_sim(std::uint64_t spec_key,
                                 std::uint64_t lambda_bits, std::uint64_t seed,
                                 sim::SimResult* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sim_.find({spec_key, lambda_bits, seed});
  if (it == sim_.end()) return false;
  *out = it->second;
  return true;
}

void MemoryResultStore::store_sim(std::uint64_t spec_key,
                                  std::uint64_t lambda_bits, std::uint64_t seed,
                                  const sim::SimResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  sim_.emplace(std::make_tuple(spec_key, lambda_bits, seed), result);
}

bool MemoryResultStore::load_saturation(std::uint64_t spec_key,
                                        std::uint64_t tol_bits,
                                        SaturationResult* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = saturation_.find({spec_key, tol_bits});
  if (it == saturation_.end()) return false;
  *out = it->second;
  return true;
}

void MemoryResultStore::store_saturation(std::uint64_t spec_key,
                                         std::uint64_t tol_bits,
                                         const SaturationResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  saturation_.emplace(std::make_pair(spec_key, tol_bits), result);
}

StoreSizes MemoryResultStore::sizes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {model_.size(), sim_.size(), saturation_.size()};
}

void MemoryResultStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  model_.clear();
  sim_.clear();
  saturation_.clear();
}

}  // namespace kncube::core
