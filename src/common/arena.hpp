// Bump-allocated scratch arena for per-worker engine state.
//
// The router's inner loop re-routes the same graph context after context,
// pass after pass, closure iteration after iteration — and every RouterCore
// used to re-own (and re-malloc) its per-node scratch vectors each time a
// worker was built.  A ScratchArena decouples the memory's lifetime from
// the engine's: a worker keeps one arena alive for the whole job, every
// engine built on that worker carves its arrays out of the same block, and
// reset() recycles the block without returning it to the allocator — so a
// rebuilt engine lands on cache-warm pages instead of fresh ones.
//
// Contract: allocations are uninitialized storage for trivially copyable,
// trivially destructible types only (C++20 implicit-lifetime rules make
// the reinterpret_cast well-formed for them); reset() invalidates every
// outstanding allocation at once.  Not thread-safe — one arena per worker,
// by design.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace mcfpga::common {

class ScratchArena {
 public:
  /// Uninitialized storage for `count` objects of T, aligned for T.  The
  /// pointer stays valid until the next reset() even if later allocations
  /// grow the arena (growth appends blocks; it never moves old ones).
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena storage is uninitialized and never destroyed");
    const std::size_t bytes = count * sizeof(T);
    return reinterpret_cast<T*>(raw_alloc(bytes, alignof(T)));
  }

  /// Invalidates every outstanding allocation and rewinds to the start of
  /// the arena.  If the previous cycle spilled into multiple blocks, they
  /// coalesce into one block of the total size, so steady state is a
  /// single reused allocation.
  void reset() {
    if (blocks_.size() > 1) {
      std::size_t total = 0;
      for (const Block& b : blocks_) {
        total += b.size;
      }
      blocks_.clear();
      blocks_.push_back(Block{std::make_unique<std::byte[]>(total), total, 0});
    } else {
      for (Block& b : blocks_) {
        b.used = 0;
      }
    }
    active_ = 0;
  }

  /// Total bytes held across all blocks (reserved, not necessarily used).
  std::size_t capacity() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) {
      total += b.size;
    }
    return total;
  }

  /// Bytes handed out since the last reset (including alignment padding).
  std::size_t used() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) {
      total += b.used;
    }
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::byte* raw_alloc(std::size_t bytes, std::size_t align) {
    for (; active_ < blocks_.size(); ++active_) {
      Block& b = blocks_[active_];
      const std::size_t at = (b.used + align - 1) & ~(align - 1);
      if (at + bytes <= b.size) {
        b.used = at + bytes;
        return b.data.get() + at;
      }
      // Too small: seal this block and move on (its storage stays valid).
    }
    // operator new[] aligns to max_align_t, which covers every scalar T.
    const std::size_t size = std::max(bytes, capacity() * 2 + 64);
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size, bytes});
    active_ = blocks_.size() - 1;
    return blocks_.back().data.get();
  }

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
};

}  // namespace mcfpga::common
