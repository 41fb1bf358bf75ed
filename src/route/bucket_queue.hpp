// Monotone bucket ("calendar") priority queue for maze expansion.
//
// PathFinder's Dijkstra pops costs in non-decreasing order, and every
// relaxation adds a bounded, strictly positive increment — sums of small
// base costs, history increments, and criticality-scaled delay steps.
// That is Dial's regime: quantize costs onto an array of buckets of width
// `quantum`, pop from the lowest non-empty bucket, and each push/pop is
// O(1) instead of a binary heap's O(log n) compare-and-swap chain over
// scattered memory.
//
// Exactness: while quantum <= the smallest relaxation increment, every
// relaxation out of the current bucket lands in a strictly later bucket,
// so all items in the current bucket already carry their final distance
// and may be popped in any fixed order — the classic Dial argument.  The
// fixed order here is FIFO (push order), which makes the pop sequence a
// pure function of the push sequence: routing is deterministic for any
// worker count.  The router derives its quantum from the cost model
// (route/router_core.hpp, expansion_quantum), so maze expansion always
// runs inside this exact regime.  A quantum larger than the smallest
// increment degrades gracefully: a push that would land behind the cursor
// is clamped into the current bucket (never dropped), which can reorder
// near-equal costs but keeps the queue terminating and deterministic.
//
// Range: the calendar spans `span` buckets from the current base; pushes
// beyond it go to an overflow list.  When the calendar drains, the queue
// rebases onto the smallest overflow cost and redistributes the overflow
// in insertion order (FIFO preserved), so arbitrarily large costs — deep
// upstream-delay seeds, heavily historied nodes — cost one extra pass,
// not correctness.  Bucket indices are clamped at kMaxBucket (2^53
// quanta): past it a double cannot resolve one quantum anyway, and the
// clamp keeps huge or infinite costs (a runaway history or present
// factor) from overflowing the integer cast.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "arch/routing_graph.hpp"
#include "common/error.hpp"

namespace mcfpga::route {

template <typename V>
class CalendarQueue {
 public:
  struct Item {
    double cost;
    V value;
  };

  /// Sizes the calendar.  Idempotent for unchanged parameters (the hot
  /// path calls it once per pass); reconfiguring clears the queue.
  void configure(double quantum, std::size_t span) {
    MCFPGA_REQUIRE(quantum > 0.0, "bucket quantum must be positive");
    MCFPGA_REQUIRE(span >= 2, "bucket calendar needs at least two buckets");
    if (quantum == quantum_ && span == buckets_.size()) {
      return;
    }
    quantum_ = quantum;
    inv_quantum_ = 1.0 / quantum;
    buckets_.assign(span, {});
    touched_.clear();
    overflow_.clear();
    base_ = 0;
    cursor_ = 0;
    pos_ = 0;
    size_ = 0;
  }

  /// Empties the queue in O(buckets touched since the last clear).
  void clear() {
    for (const std::size_t slot : touched_) {
      buckets_[slot].clear();
    }
    touched_.clear();
    overflow_.clear();
    base_ = 0;
    cursor_ = 0;
    pos_ = 0;
    size_ = 0;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(double cost, V value) {
    std::uint64_t q = quantize(cost);
    // Monotone clamp: never file an item behind the pop cursor (see the
    // header comment) — zero-cost seeds after a rebase land here too.
    const std::uint64_t floor_q = base_ + cursor_;
    if (q < floor_q) {
      q = floor_q;
    }
    place(q, Item{cost, value});
    ++size_;
  }

  Item pop() {
    MCFPGA_REQUIRE(size_ > 0, "pop from an empty bucket queue");
    for (;;) {
      while (cursor_ < buckets_.size()) {
        std::vector<Item>& bucket = buckets_[cursor_];
        if (pos_ < bucket.size()) {
          --size_;
          return bucket[pos_++];
        }
        bucket.clear();  // fully consumed; cheap to clear now
        pos_ = 0;
        ++cursor_;
      }
      rebase();  // calendar drained; only overflow items remain
    }
  }

 private:
  /// Highest bucket index, 2^53: every integer up to it is a double, so
  /// the cast below is exact and defined.
  static constexpr double kMaxBucket = 9007199254740992.0;

  std::uint64_t quantize(double cost) const {
    // Costs are non-negative by construction; guard NaN/negative anyway so
    // a bad cost degrades to bucket 0 instead of undefined behavior.
    if (!(cost > 0.0)) {
      return 0;
    }
    return static_cast<std::uint64_t>(
        std::min(cost * inv_quantum_, kMaxBucket));
  }

  void place(std::uint64_t q, const Item& item) {
    if (q >= base_ + buckets_.size()) {
      overflow_.push_back(item);
      return;
    }
    std::vector<Item>& bucket = buckets_[static_cast<std::size_t>(q - base_)];
    if (bucket.empty()) {
      touched_.push_back(static_cast<std::size_t>(q - base_));
    }
    bucket.push_back(item);
  }

  void rebase() {
    std::uint64_t min_q = std::numeric_limits<std::uint64_t>::max();
    for (const Item& item : overflow_) {
      min_q = std::min(min_q, quantize(item.cost));
    }
    base_ = min_q;
    cursor_ = 0;
    pos_ = 0;
    touched_.clear();  // every calendar bucket was cleared by the pop scan
    scratch_.clear();
    scratch_.swap(overflow_);
    for (const Item& item : scratch_) {  // insertion order: FIFO survives
      place(quantize(item.cost), item);
    }
  }

  double quantum_ = 0.0;
  double inv_quantum_ = 0.0;
  std::uint64_t base_ = 0;   ///< Quantized index of buckets_[0].
  std::size_t cursor_ = 0;   ///< Current bucket (pop scans forward only).
  std::size_t pos_ = 0;      ///< Next unconsumed item of the cursor bucket.
  std::size_t size_ = 0;
  std::vector<std::vector<Item>> buckets_;
  std::vector<std::size_t> touched_;  ///< Slots made non-empty since clear().
  std::vector<Item> overflow_;        ///< Quantized cost >= base_ + span.
  std::vector<Item> scratch_;         ///< Rebase staging (allocation reuse).
};

/// Maze expansion's calendar: payload is the routing-graph node.
using BucketQueue = CalendarQueue<arch::NodeId>;

}  // namespace mcfpga::route
