#include "rcm/decoder_synth.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "config/context_id.hpp"

namespace mcfpga::rcm {

namespace {

// During recursion a sub-pattern is a truth table ("word") over the set of
// context-ID bits still undecided ("mask" of global bit indices).  Entry i of
// the word is the configuration-bit value when the remaining bits take the
// assignment i (local bit j of i = global bit bits[j], ascending order).
struct SubPattern {
  std::uint64_t mask = 0;  // set of remaining global ID bits
  std::uint64_t word = 0;  // 2^popcount(mask) truth-table entries

  std::size_t arity() const {
    return static_cast<std::size_t>(std::popcount(mask));
  }
  std::size_t entries() const { return std::size_t{1} << arity(); }
  std::uint64_t full() const {
    return entries() == 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << entries()) - 1;
  }
  bool operator==(const SubPattern&) const = default;
};

struct SubPatternHash {
  std::size_t operator()(const SubPattern& p) const {
    return std::hash<std::uint64_t>{}(p.mask * 0x9e3779b97f4a7c15ull ^ p.word);
  }
};

// Inserts bit `b` at local position `j` of index `i`.
std::uint64_t insert_bit(std::uint64_t i, std::size_t j, std::uint64_t b) {
  const std::uint64_t low = i & ((std::uint64_t{1} << j) - 1);
  const std::uint64_t high = i >> j;
  return low | (b << j) | (high << (j + 1));
}

// Global ID-bit index of local bit position j under `mask`.
std::size_t global_bit(std::uint64_t mask, std::size_t j) {
  std::size_t seen = 0;
  for (std::size_t g = 0; g < 64; ++g) {
    if (mask & (std::uint64_t{1} << g)) {
      if (seen == j) {
        return g;
      }
      ++seen;
    }
  }
  throw ProgrammingError("global_bit: local bit out of range");
}

// Truth-table word of "local bit j" itself over `m` local bits.
std::uint64_t bit_word(std::size_t m, std::size_t j) {
  std::uint64_t w = 0;
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << m); ++i) {
    if ((i >> j) & 1) {
      w |= std::uint64_t{1} << i;
    }
  }
  return w;
}

// Cofactors of `p` with respect to local bit j.
std::pair<SubPattern, SubPattern> cofactors(const SubPattern& p,
                                            std::size_t j) {
  const std::size_t g = global_bit(p.mask, j);
  SubPattern lo, hi;
  lo.mask = hi.mask = p.mask & ~(std::uint64_t{1} << g);
  const std::size_t m = p.arity();
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << (m - 1)); ++i) {
    if ((p.word >> insert_bit(i, j, 0)) & 1) {
      lo.word |= std::uint64_t{1} << i;
    }
    if ((p.word >> insert_bit(i, j, 1)) & 1) {
      hi.word |= std::uint64_t{1} << i;
    }
  }
  return {lo, hi};
}

// Leaf test: constant or a single remaining ID bit (possibly complemented).
// Returns the driver SE if the sub-pattern is a leaf.
std::optional<SwitchElement> leaf_se(const SubPattern& p) {
  if (p.word == 0) {
    return SwitchElement::constant(false);
  }
  if (p.word == p.full()) {
    return SwitchElement::constant(true);
  }
  const std::size_t m = p.arity();
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint64_t bw = bit_word(m, j);
    if (p.word == bw) {
      return SwitchElement::id_bit(global_bit(p.mask, j), /*inverted=*/false);
    }
    if (p.word == (bw ^ p.full())) {
      return SwitchElement::id_bit(global_bit(p.mask, j), /*inverted=*/true);
    }
  }
  return std::nullopt;
}

using CostMemo = std::unordered_map<SubPattern, std::size_t, SubPatternHash>;

// Minimal SE count within the Shannon-tree template: leaves cost 1; a
// decomposition costs cost(lo) + cost(hi) + 2 gater SEs.
std::size_t cost_rec(const SubPattern& p, CostMemo& memo) {
  if (leaf_se(p)) {
    return 1;
  }
  const auto it = memo.find(p);
  if (it != memo.end()) {
    return it->second;
  }
  std::size_t best = SIZE_MAX;
  const std::size_t m = p.arity();
  for (std::size_t j = 0; j < m; ++j) {
    const auto [lo, hi] = cofactors(p, j);
    if (lo == hi) {
      continue;  // pattern does not depend on this bit; skipping is free
    }
    best = std::min(best, cost_rec(lo, memo) + cost_rec(hi, memo) + 2);
  }
  // A non-leaf pattern depends on at least two bits, so some split exists.
  MCFPGA_CHECK(best != SIZE_MAX, "no decomposition bit found");
  memo[p] = best;
  return best;
}

// Recursive network builder; returns the depth (pass-gate stages) of the
// subtree whose output drives `wire`.
std::size_t build_rec(const SubPattern& p, int wire, DecoderNetwork::BuildState& st,
                      CostMemo& memo);

}  // namespace

// Private builder access: the network exposes a BuildState so the free
// function synthesize_decoder can assemble it without friending internals
// into the anonymous namespace.
struct DecoderNetwork::BuildState {
  DecoderNetwork net;
  int new_wire() { return static_cast<int>(net.num_wires_++); }
};

namespace {

std::size_t build_rec(const SubPattern& p, int wire,
                      DecoderNetwork::BuildState& st, CostMemo& memo) {
  if (const auto leaf = leaf_se(p)) {
    DecoderSe d;
    d.se = *leaf;
    d.role = DecoderSe::Role::kDriver;
    d.out_wire = wire;
    st.net.add(d);
    return 0;
  }
  // Pick the decomposition bit the cost recursion would pick.
  std::size_t best_cost = SIZE_MAX;
  std::size_t best_bit = 0;
  const std::size_t m = p.arity();
  for (std::size_t j = 0; j < m; ++j) {
    const auto [lo, hi] = cofactors(p, j);
    if (lo == hi) {
      continue;
    }
    const std::size_t c = cost_rec(lo, memo) + cost_rec(hi, memo) + 2;
    if (c < best_cost) {
      best_cost = c;
      best_bit = j;
    }
  }
  MCFPGA_CHECK(best_cost != SIZE_MAX, "no decomposition bit found");

  const std::size_t gbit = global_bit(p.mask, best_bit);
  const auto [lo, hi] = cofactors(p, best_bit);
  const int lo_wire = st.new_wire();
  const int hi_wire = st.new_wire();
  const std::size_t lo_depth = build_rec(lo, lo_wire, st, memo);
  const std::size_t hi_depth = build_rec(hi, hi_wire, st, memo);

  DecoderSe gate_hi;
  gate_hi.se = SwitchElement::id_bit(gbit, /*inverted=*/false);
  gate_hi.role = DecoderSe::Role::kGater;
  gate_hi.in_wire = hi_wire;
  gate_hi.out_wire = wire;
  st.net.add(gate_hi);

  DecoderSe gate_lo;
  gate_lo.se = SwitchElement::id_bit(gbit, /*inverted=*/true);
  gate_lo.role = DecoderSe::Role::kGater;
  gate_lo.in_wire = lo_wire;
  gate_lo.out_wire = wire;
  st.net.add(gate_lo);

  return std::max(lo_depth, hi_depth) + 1;
}

SubPattern to_subpattern(const config::ContextPattern& pattern) {
  const std::size_t n = pattern.num_contexts();
  const std::size_t k = config::num_id_bits(n);
  SubPattern p;
  p.mask = (k == 64) ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
  p.word = pattern.word();
  return p;
}

}  // namespace

void DecoderNetwork::add(const DecoderSe& se) { ses_.push_back(se); }

std::size_t DecoderNetwork::input_controller_count() const {
  std::size_t n = 0;
  for (const auto& d : ses_) {
    if (d.se.uses_input_controller()) {
      ++n;
    }
  }
  return n;
}

std::size_t DecoderNetwork::programmable_switch_count() const {
  // One track crossing per gater input plus one per gater output merge.
  std::size_t n = 0;
  for (const auto& d : ses_) {
    if (d.role == DecoderSe::Role::kGater) {
      n += 2;
    }
  }
  return n;
}

bool DecoderNetwork::eval(std::size_t context) const {
  // Wire values resolved by fixpoint iteration; the network is a tree of
  // depth <= number of ID bits, so at most that many passes are needed.
  constexpr int kUnknown = -1;
  std::vector<int> value(num_wires_, kUnknown);

  for (std::size_t pass = 0; pass <= depth_ + 1; ++pass) {
    bool changed = false;
    for (const auto& d : ses_) {
      if (d.role == DecoderSe::Role::kDriver) {
        const int v = d.se.eval(context) ? 1 : 0;
        if (value[d.out_wire] == kUnknown) {
          value[d.out_wire] = v;
          changed = true;
        } else {
          MCFPGA_CHECK(value[d.out_wire] == v, "wire driven to two values");
        }
      } else if (d.se.eval(context)) {  // pass-gate on
        const int v = value[d.in_wire];
        if (v != kUnknown) {
          if (value[d.out_wire] == kUnknown) {
            value[d.out_wire] = v;
            changed = true;
          } else {
            MCFPGA_CHECK(value[d.out_wire] == v, "wire driven to two values");
          }
        }
      }
    }
    if (!changed) {
      break;
    }
  }
  MCFPGA_CHECK(value[0] != kUnknown, "decoder output wire is floating");
  return value[0] == 1;
}

std::string DecoderNetwork::describe() const {
  std::ostringstream os;
  os << "DecoderNetwork: " << ses_.size() << " SEs, " << num_wires_
     << " wires, depth " << depth_ << "\n";
  for (std::size_t i = 0; i < ses_.size(); ++i) {
    const auto& d = ses_[i];
    os << "  SE" << i << " [" << d.se.describe() << "] ";
    if (d.role == DecoderSe::Role::kDriver) {
      os << "drives w" << d.out_wire;
    } else {
      os << "gates w" << d.in_wire << " -> w" << d.out_wire;
    }
    os << "\n";
  }
  return os.str();
}

DecoderNetwork synthesize_decoder(const config::ContextPattern& pattern) {
  CostMemo memo;
  DecoderNetwork::BuildState st;
  st.net.num_wires_ = 1;  // wire 0 = output
  st.net.depth_ = build_rec(to_subpattern(pattern), /*wire=*/0, st, memo);

  // Synthesis invariant: the network reproduces the pattern in every context.
  for (std::size_t c = 0; c < pattern.num_contexts(); ++c) {
    MCFPGA_CHECK(st.net.eval(c) == pattern.value_in(c),
                 "synthesized decoder disagrees with its pattern");
  }
  return std::move(st.net);
}

std::size_t decoder_se_cost(const config::ContextPattern& pattern) {
  CostMemo memo;
  return cost_rec(to_subpattern(pattern), memo);
}

}  // namespace mcfpga::rcm
