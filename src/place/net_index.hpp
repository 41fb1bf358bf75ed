// Flat CSR adjacency between placement terminals and nets, plus an exact
// incremental HPWL evaluator built on it.
//
// The annealer's hot loop asks one question per attempted move: "by how
// much does the total wirelength change if these one or two terminals
// relocate?"  Answering it by recomputing every net (the seed placer's
// State::total_cost) costs O(nets x terminals) per move; answering it from
// a terminal->net index costs O(pins of the nets incident to the moved
// terminals).  The index is the same flat-CSR idiom RoutingGraph uses for
// its edge adjacency: two offset/payload array pairs built once per
// problem, no per-element heap traffic afterwards.
//
// Exactness: cell and pad coordinates are integers, so every net's
// half-perimeter — and therefore every move delta — is an exact int64.
// The running cost never drifts from a from-scratch recompute, which is
// what lets the incremental annealer promise bit-identical trajectories
// to the full-recompute baseline (same RNG draws, same deltas, same
// accept decisions).
//
// One pass per move: propose() writes the new positions first, then
// rescans every touched net once from the final positions.  No per-net
// bounding box is kept, only its committed half-perimeter.  VPR instead
// keeps per-edge support counts so that most moves update a box in O(1),
// but on the flow's placement problems that bookkeeping costs more than
// it saves: half the nets have 2 pins, about 5% have more than 8, the
// largest has 23, and a move touches ~9 nets and ~47 pins in all.  A
// branch-free min/max scan over so few pins beats the branchy count
// upkeep, whose rescan cue fires on most small-net moves anyway.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "place/placer.hpp"

namespace mcfpga::place {

/// Terminal->net and net->terminal adjacency in flat CSR form.
///
/// Terminals are numbered clusters first, then I/O terminals:
/// cluster c -> c, io i -> num_clusters + i.
class NetIndex {
 public:
  /// `options` supplies the timing-mode net weighting; the default keeps
  /// the pure context-count weights.
  explicit NetIndex(const PlacementProblem& problem,
                    const PlacerOptions& options = {});

  std::size_t num_nets() const { return net_weight_.size(); }
  std::size_t num_clusters() const { return num_clusters_; }
  std::size_t num_terminals() const { return term_offset_.size() - 1; }

  std::uint32_t terminal_id(const Terminal& t) const {
    return static_cast<std::uint32_t>(
        t.kind == Terminal::Kind::kCluster ? t.id : num_clusters_ + t.id);
  }

  /// Distinct nets incident to terminal `t`, in ascending net order.
  const std::uint32_t* terminal_nets_begin(std::size_t t) const {
    return term_nets_.data() + term_offset_[t];
  }
  const std::uint32_t* terminal_nets_end(std::size_t t) const {
    return term_nets_.data() + term_offset_[t + 1];
  }

  /// Terminal ids of net `n`, driver first, repeats preserved (a repeat
  /// cannot change a min/max scan).
  const std::uint32_t* net_terms_begin(std::size_t n) const {
    return net_terms_.data() + net_offset_[n];
  }
  const std::uint32_t* net_terms_end(std::size_t n) const {
    return net_terms_.data() + net_offset_[n + 1];
  }

  std::int64_t net_weight(std::size_t n) const { return net_weight_[n]; }

 private:
  std::size_t num_clusters_ = 0;
  std::vector<std::int64_t> net_weight_;
  // terminal -> incident nets.
  std::vector<std::uint32_t> term_offset_;
  std::vector<std::uint32_t> term_nets_;
  // net -> member terminals (for half-perimeter scans).
  std::vector<std::uint32_t> net_offset_;
  std::vector<std::uint32_t> net_terms_;
};

/// Exact running HPWL over integer terminal positions.
///
/// Usage: reset() with one position per terminal, then per attempted move
/// call propose() (up to two terminal relocations, e.g. a swap) followed
/// by exactly one of commit() / rollback().  propose_full() has identical
/// semantics but recomputes the whole cost from scratch — the
/// full-recompute baseline the benches race against.  Do not mix
/// propose() and propose_full() between resets: the full path leaves the
/// per-net half-perimeters stale on commit.
class IncrementalHpwl {
 public:
  explicit IncrementalHpwl(const NetIndex& index);

  /// Rebuilds every net's half-perimeter and the total cost from the
  /// given positions.
  void reset(const std::vector<std::int32_t>& xs,
             const std::vector<std::int32_t>& ys);

  std::int64_t cost() const { return cost_; }

  /// One terminal relocation; `x`/`y` are the new position.
  struct Move {
    std::uint32_t term = 0;
    std::int32_t x = 0;
    std::int32_t y = 0;
  };

  /// Applies the moves (terminals must be distinct) and returns the exact
  /// cost delta, rescanning only the nets incident to the moved terminals.
  std::int64_t propose(const Move* moves, std::size_t count);

  /// Same contract as propose(), but O(all nets): applies the moves and
  /// recomputes the total from scratch.
  std::int64_t propose_full(const Move* moves, std::size_t count);

  /// Keeps the proposed move: folds the delta into cost().
  void commit();
  /// Discards the proposed move: restores the pre-propose positions.
  void rollback();

  /// From-scratch recompute at the current positions (test oracle).
  std::int64_t recompute_cost() const;

 private:
  struct Pos {
    std::int32_t x = 0;
    std::int32_t y = 0;
  };
  /// A net touched by the pending move and its proposed half-perimeter.
  struct Touched {
    std::uint32_t net = 0;
    std::int64_t half_perimeter = 0;
  };

  /// Writes the moved terminals' new positions, remembering the old ones.
  void apply(const Move* moves, std::size_t count);
  /// Half-perimeter of `net`'s bounding box at the current positions.
  std::int64_t half_perimeter(std::size_t net) const;

  const NetIndex& index_;
  std::vector<Pos> pos_;
  std::int64_t cost_ = 0;

  std::vector<std::int64_t> half_perimeter_;  ///< Committed, per net.
  /// 64-bit so a long anneal can never wrap the epoch into a stale stamp.
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
  std::vector<Touched> touched_;

  Move undo_[2];
  std::size_t undo_count_ = 0;
  std::int64_t pending_delta_ = 0;
};

}  // namespace mcfpga::place
