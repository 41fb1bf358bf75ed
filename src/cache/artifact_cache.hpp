// In-memory content-addressed artifact store: a bounded, LRU-evicted map
// from 64-bit content keys (cache/key.hpp) to immutable stage artifacts.
//
// The cache is type-erased so one store serves every stage's artifact
// type; find<T>() treats a key whose stored type differs as a miss (keys
// are content hashes, so this only triggers on a 64-bit collision).
// Artifacts are handed out as shared_ptr<const T>: eviction drops the
// cache's reference, never a consumer's.
//
// Not thread-safe; the compile service serializes access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <typeinfo>
#include <unordered_map>

namespace mcfpga::cache {

/// Bounded LRU store of immutable artifacts keyed by content hash.
class ArtifactCache {
 public:
  struct Limits {
    std::size_t max_entries = 64;
    std::size_t max_bytes = 512ull << 20;
  };
  struct Counters {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t stores = 0;
  };

  ArtifactCache() = default;
  explicit ArtifactCache(Limits limits) : limits_(limits) {}

  /// Looks `key` up; a hit refreshes its LRU position.
  template <typename T>
  std::shared_ptr<const T> find(std::uint64_t key) {
    Entry* entry = find_entry(key, typeid(T));
    if (entry == nullptr) {
      return nullptr;
    }
    return std::static_pointer_cast<const T>(entry->value);
  }

  /// Inserts (or replaces) `key`, then evicts least-recently-used entries
  /// until the limits hold again.  `bytes` is the caller's size estimate
  /// used for the byte bound.
  template <typename T>
  void store(std::uint64_t key, std::shared_ptr<const T> value,
             std::size_t bytes) {
    store_entry(key,
                std::static_pointer_cast<const void>(std::move(value)),
                typeid(T), bytes);
  }

  const Counters& counters() const { return counters_; }
  const Limits& limits() const { return limits_; }
  std::size_t num_entries() const { return entries_.size(); }
  std::size_t bytes() const { return bytes_; }

 private:
  struct Entry {
    std::shared_ptr<const void> value;
    const std::type_info* type = nullptr;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru_it;
  };

  Entry* find_entry(std::uint64_t key, const std::type_info& type);
  void store_entry(std::uint64_t key, std::shared_ptr<const void> value,
                   const std::type_info& type, std::size_t bytes);
  void evict_over_limit();

  Limits limits_{};
  Counters counters_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Front = most recently used.
  std::list<std::uint64_t> lru_;
  std::size_t bytes_ = 0;
};

}  // namespace mcfpga::cache
