#include "core/result_store.hpp"

#include <sstream>

namespace kncube::core {

std::string format_cache_stats(const CacheStats& s) {
  std::ostringstream os;
  os << "model_entries=" << s.model_entries << " sim_entries=" << s.sim_entries
     << " saturation_entries=" << s.saturation_entries
     << " model_hits=" << s.model_hits << " sim_hits=" << s.sim_hits
     << " saturation_hits=" << s.saturation_hits
     << " model_solves=" << s.model_solves << " sim_runs=" << s.sim_runs
     << " inflight_waits=" << s.inflight_waits;
  return os.str();
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
