// Per-configuration-bit context patterns and their classification
// (paper Section 2, Figs. 3-5).
//
// A ContextPattern records the value one configuration bit takes in each of
// the n contexts.  The paper's key observation is that for realistic
// multi-context workloads almost all patterns fall into cheap classes:
//
//   kConstant   (Fig. 3)  all-0 / all-1           -> 1 switch element
//   kSingleBit  (Fig. 4)  equals Sj or ~Sj        -> 1 switch element
//   kComplex    (Fig. 5)  anything else           -> SE mux tree (~4 SEs @ 4 ctx)
//
// The classification generalizes beyond 4 contexts: a pattern is kSingleBit
// iff its value is a function of exactly one context-ID bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvector.hpp"
#include "common/error.hpp"

namespace mcfpga::config {

enum class PatternClass {
  kConstant,   ///< Fig. 3: context-independent (all-0 or all-1).
  kSingleBit,  ///< Fig. 4: equals one context-ID bit or its complement.
  kComplex,    ///< Fig. 5: depends on two or more context-ID bits.
};

std::string to_string(PatternClass cls);

/// The value of one configuration bit in each context, packed into one
/// word: bit c of word() is the value in context c.  Context counts are
/// capped at 64 (is_valid_context_count), so a pattern never touches the
/// heap and copies as two words.
class ContextPattern {
 public:
  /// All-`value` pattern over `num_contexts` contexts.
  explicit ContextPattern(std::size_t num_contexts, bool value = false);
  /// From explicit per-context values (index = context number).
  explicit ContextPattern(const BitVector& values);
  /// From a packed word (bit c = value in context c); bits at or above
  /// `num_contexts` are ignored.
  static ContextPattern from_word(std::uint64_t word, std::size_t num_contexts);
  /// Parses "1000"-style strings written MSB-first like the paper's figures:
  /// "1000" means (C3,C2,C1,C0) = (1,0,0,0).
  static ContextPattern from_string(const std::string& msb_first);
  /// The pattern that mirrors ID bit Sj (optionally complemented).
  static ContextPattern for_id_bit(std::size_t num_contexts, std::size_t bit,
                                   bool inverted);

  std::size_t num_contexts() const { return num_contexts_; }
  bool value_in(std::size_t context) const {
    MCFPGA_REQUIRE(context < num_contexts_, "context out of range");
    return ((word_ >> context) & 1U) != 0;
  }
  void set_value(std::size_t context, bool value) {
    MCFPGA_REQUIRE(context < num_contexts_, "context out of range");
    const std::uint64_t bit = std::uint64_t{1} << context;
    word_ = value ? (word_ | bit) : (word_ & ~bit);
  }
  /// The per-context values, bit c = context c.
  std::uint64_t word() const { return word_; }
  /// The same values as a BitVector (a copy; prefer word()).
  BitVector values() const {
    return BitVector::from_word(word_, num_contexts_);
  }

  /// Paper-style MSB-first rendering: (C3..C0)=(1,0,0,0) -> "1000".
  std::string to_string() const;

  bool operator==(const ContextPattern& o) const = default;

 private:
  std::uint64_t word_ = 0;
  std::uint64_t num_contexts_ = 0;
};

/// Hash functor so ContextPattern can key unordered containers.
struct ContextPatternHash {
  std::size_t operator()(const ContextPattern& p) const {
    // splitmix64 finalizer over the word, salted by the context count.
    std::uint64_t z = p.word() + 0x9e3779b97f4a7c15ull * p.num_contexts();
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// Result of classifying a pattern.
struct PatternInfo {
  PatternClass cls = PatternClass::kComplex;
  /// For kConstant: the constant value.
  bool constant_value = false;
  /// For kSingleBit: which ID bit, and whether complemented.
  std::size_t id_bit = 0;
  bool inverted = false;

  /// "const 0", "S1", "~S0", "complex", ... for reports.
  std::string describe() const;
};

/// Classifies a pattern per the Figs. 3-5 taxonomy.
PatternInfo classify(const ContextPattern& pattern);

/// Enumerates all 2^n patterns for small n (n <= 16), in numeric order of
/// their context-value word.  Used by exhaustive tests and the Fig. 3-5
/// census bench.
std::vector<ContextPattern> all_patterns(std::size_t num_contexts);

/// True iff the pattern is periodic with the given period, e.g. "0101" has
/// period 2 (the paper calls this "regularity": repeating bits in an order).
bool has_period(const ContextPattern& pattern, std::size_t period);

/// Smallest period of the pattern (1 = constant, num_contexts = aperiodic).
std::size_t smallest_period(const ContextPattern& pattern);

}  // namespace mcfpga::config
