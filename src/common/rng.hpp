// Deterministic random-number generation for workload synthesis and the
// simulated-annealing placer.  xoshiro256** is used instead of std::mt19937
// for speed and for bit-for-bit reproducibility across standard libraries
// (libstdc++ and libc++ disagree on distribution outputs; we implement our
// own bounded-draw helpers so seeds give identical workloads everywhere).
// The per-draw functions are inline: the annealer draws several times per
// move, and an out-of-line call per draw is a measurable share of a move.
#pragma once

#include <bit>
#include <cstdint>

#include "common/error.hpp"

namespace mcfpga {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit draw.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    MCFPGA_REQUIRE(bound > 0, "next_below bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 top bits -> [0,1) with full double precision.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// True with probability p (clamped to [0,1]).
  bool next_bool(double p = 0.5) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return next_double() < p;
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace mcfpga
