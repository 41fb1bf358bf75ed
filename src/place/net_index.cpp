#include "place/net_index.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace mcfpga::place {

NetIndex::NetIndex(const PlacementProblem& problem,
                   const PlacerOptions& options) {
  num_clusters_ = problem.num_clusters;
  const std::size_t terms = problem.num_clusters + problem.num_io_terminals;
  const std::size_t nets = problem.nets.size();

  net_weight_.resize(nets);
  net_offset_.assign(nets + 1, 0);
  for (std::size_t n = 0; n < nets; ++n) {
    // Effective weight (criticality-bumped in timing mode), zero included —
    // placement_cost() is the oracle and a zero-weight net must stay free
    // here too.
    net_weight_[n] = effective_net_weight(problem.nets[n], options);
    net_offset_[n + 1] = net_offset_[n] +
                         static_cast<std::uint32_t>(1 + problem.nets[n].sinks.size());
  }
  net_terms_.resize(net_offset_[nets]);
  for (std::size_t n = 0; n < nets; ++n) {
    std::uint32_t* out = net_terms_.data() + net_offset_[n];
    *out++ = terminal_id(problem.nets[n].driver);
    for (const Terminal& s : problem.nets[n].sinks) {
      *out++ = terminal_id(s);
    }
  }

  // Terminal->net CSR.  One pass collects the distinct (terminal, net)
  // pairs — nets are visited in order, so a terminal's last-seen net
  // dedupes its repeats — and counts them per terminal; a counting sort
  // then lays them out.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(net_terms_.size());
  std::vector<std::uint32_t> last_net(terms, UINT32_MAX);
  term_offset_.assign(terms + 1, 0);
  for (std::uint32_t n = 0; n < nets; ++n) {
    for (const std::uint32_t* it = net_terms_begin(n); it != net_terms_end(n);
         ++it) {
      if (last_net[*it] != n) {
        last_net[*it] = n;
        ++term_offset_[*it + 1];
        pairs.emplace_back(*it, n);
      }
    }
  }
  for (std::size_t t = 0; t < terms; ++t) {
    term_offset_[t + 1] += term_offset_[t];
  }
  term_nets_.resize(pairs.size());
  std::vector<std::uint32_t> fill(term_offset_.begin(), term_offset_.end() - 1);
  for (const auto& [t, n] : pairs) {
    term_nets_[fill[t]++] = n;
  }
}

IncrementalHpwl::IncrementalHpwl(const NetIndex& index)
    : index_(index),
      pos_(index.num_terminals()),
      half_perimeter_(index.num_nets(), 0),
      stamp_(index.num_nets(), 0) {}

std::int64_t IncrementalHpwl::half_perimeter(std::size_t net) const {
  const std::uint32_t* it = index_.net_terms_begin(net);
  const std::uint32_t* end = index_.net_terms_end(net);
  std::int32_t min_x = pos_[*it].x, max_x = min_x;
  std::int32_t min_y = pos_[*it].y, max_y = min_y;
  for (++it; it != end; ++it) {
    const Pos p = pos_[*it];
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  return static_cast<std::int64_t>(max_x - min_x) +
         static_cast<std::int64_t>(max_y - min_y);
}

void IncrementalHpwl::reset(const std::vector<std::int32_t>& xs,
                            const std::vector<std::int32_t>& ys) {
  MCFPGA_REQUIRE(xs.size() == index_.num_terminals() && xs.size() == ys.size(),
                 "one position per terminal");
  for (std::size_t t = 0; t < pos_.size(); ++t) {
    pos_[t] = Pos{xs[t], ys[t]};
  }
  cost_ = 0;
  for (std::size_t n = 0; n < index_.num_nets(); ++n) {
    half_perimeter_[n] = half_perimeter(n);
    cost_ += index_.net_weight(n) * half_perimeter_[n];
  }
  touched_.clear();
  undo_count_ = 0;
  pending_delta_ = 0;
}

void IncrementalHpwl::apply(const Move* moves, std::size_t count) {
  undo_count_ = count;
  for (std::size_t i = 0; i < count; ++i) {
    Pos& p = pos_[moves[i].term];
    undo_[i] = Move{moves[i].term, p.x, p.y};
    p = Pos{moves[i].x, moves[i].y};
  }
}

std::int64_t IncrementalHpwl::propose(const Move* moves, std::size_t count) {
  apply(moves, count);
  ++epoch_;
  touched_.clear();
  std::int64_t delta = 0;
  for (std::size_t i = 0; i < count; ++i) {
    for (const std::uint32_t* it = index_.terminal_nets_begin(moves[i].term);
         it != index_.terminal_nets_end(moves[i].term); ++it) {
      const std::uint32_t net = *it;
      if (stamp_[net] == epoch_) {
        continue;  // Shared by both moved terminals: already rescanned.
      }
      stamp_[net] = epoch_;
      const std::int64_t hp = half_perimeter(net);
      touched_.push_back(Touched{net, hp});
      delta += index_.net_weight(net) * (hp - half_perimeter_[net]);
    }
  }
  pending_delta_ = delta;
  return delta;
}

std::int64_t IncrementalHpwl::propose_full(const Move* moves,
                                           std::size_t count) {
  apply(moves, count);
  touched_.clear();  // commit() then leaves the per-net values alone.
  pending_delta_ = recompute_cost() - cost_;
  return pending_delta_;
}

void IncrementalHpwl::commit() {
  for (const Touched& t : touched_) {
    half_perimeter_[t.net] = t.half_perimeter;
  }
  cost_ += pending_delta_;
  undo_count_ = 0;
}

void IncrementalHpwl::rollback() {
  for (std::size_t i = 0; i < undo_count_; ++i) {
    pos_[undo_[i].term] = Pos{undo_[i].x, undo_[i].y};
  }
  undo_count_ = 0;
}

std::int64_t IncrementalHpwl::recompute_cost() const {
  std::int64_t c = 0;
  for (std::size_t n = 0; n < index_.num_nets(); ++n) {
    c += index_.net_weight(n) * half_perimeter(n);
  }
  return c;
}

}  // namespace mcfpga::place
