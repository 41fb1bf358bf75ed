#include "common/rng.hpp"

#include "common/error.hpp"

namespace mcfpga {

namespace {
// splitmix64 expands the single seed word into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // All-zero state would lock xoshiro at zero forever.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 1;
  }
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  MCFPGA_REQUIRE(lo <= hi, "next_in requires lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

}  // namespace mcfpga
