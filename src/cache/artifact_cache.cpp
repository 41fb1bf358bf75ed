#include "cache/artifact_cache.hpp"

#include <utility>

namespace mcfpga::cache {

ArtifactCache::Entry* ArtifactCache::find_entry(std::uint64_t key,
                                                const std::type_info& type) {
  const auto it = entries_.find(key);
  if (it == entries_.end() || *it->second.type != type) {
    ++counters_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++counters_.hits;
  return &it->second;
}

void ArtifactCache::store_entry(std::uint64_t key,
                                std::shared_ptr<const void> value,
                                const std::type_info& type,
                                std::size_t bytes) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    it->second.value = std::move(value);
    it->second.type = &type;
    it->second.bytes = bytes;
    bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(key);
    Entry entry;
    entry.value = std::move(value);
    entry.type = &type;
    entry.bytes = bytes;
    entry.lru_it = lru_.begin();
    entries_.emplace(key, std::move(entry));
    bytes_ += bytes;
  }
  ++counters_.stores;
  evict_over_limit();
}

void ArtifactCache::evict_over_limit() {
  // Never evict the sole (just-touched) entry: an artifact larger than
  // max_bytes still caches, it just caches alone.
  while ((entries_.size() > limits_.max_entries || bytes_ > limits_.max_bytes) &&
         lru_.size() > 1) {
    const std::uint64_t victim = lru_.back();
    const auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

}  // namespace mcfpga::cache
