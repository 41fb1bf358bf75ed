#include "config/pattern.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "config/context_id.hpp"

namespace mcfpga::config {

std::string to_string(PatternClass cls) {
  switch (cls) {
    case PatternClass::kConstant:
      return "constant";
    case PatternClass::kSingleBit:
      return "single-bit";
    case PatternClass::kComplex:
      return "complex";
  }
  return "?";
}

namespace {

/// The low `n` bits set (n in [1, 64]).
std::uint64_t low_mask(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

}  // namespace

ContextPattern::ContextPattern(std::size_t num_contexts, bool value)
    : num_contexts_(num_contexts) {
  MCFPGA_REQUIRE(is_valid_context_count(num_contexts),
                 "context count must be a power of two in [2, 64]");
  word_ = value ? low_mask(num_contexts) : 0;
}

ContextPattern::ContextPattern(const BitVector& values)
    : ContextPattern(values.size()) {
  word_ = values.to_word();
}

ContextPattern ContextPattern::from_word(std::uint64_t word,
                                         std::size_t num_contexts) {
  ContextPattern p(num_contexts);
  p.word_ = word & low_mask(num_contexts);
  return p;
}

ContextPattern ContextPattern::from_string(const std::string& msb_first) {
  // BitVector::from_string is already MSB-first, matching the paper's
  // (C_{n-1}, ..., C_0) rendering.
  return ContextPattern(BitVector::from_string(msb_first));
}

ContextPattern ContextPattern::for_id_bit(std::size_t num_contexts,
                                          std::size_t bit, bool inverted) {
  MCFPGA_REQUIRE(bit < num_id_bits(num_contexts), "ID bit out of range");
  ContextPattern p(num_contexts);
  for (std::size_t c = 0; c < num_contexts; ++c) {
    p.set_value(c, id_bit_value(c, bit) != inverted);
  }
  return p;
}

std::string ContextPattern::to_string() const {
  std::string out(num_contexts_, '0');
  for (std::size_t c = 0; c < num_contexts_; ++c) {
    if (((word_ >> c) & 1U) != 0) {
      out[num_contexts_ - 1 - c] = '1';
    }
  }
  return out;
}

std::string PatternInfo::describe() const {
  switch (cls) {
    case PatternClass::kConstant:
      return constant_value ? "const 1" : "const 0";
    case PatternClass::kSingleBit:
      return id_bit_name(id_bit, inverted);
    case PatternClass::kComplex:
      return "complex";
  }
  return "?";
}

PatternInfo classify(const ContextPattern& pattern) {
  const std::size_t n = pattern.num_contexts();
  PatternInfo info;

  if (pattern.word() == 0 || pattern == ContextPattern(n, true)) {
    info.cls = PatternClass::kConstant;
    info.constant_value = pattern.value_in(0);
    return info;
  }

  const std::size_t k = num_id_bits(n);
  for (std::size_t bit = 0; bit < k; ++bit) {
    for (const bool inverted : {false, true}) {
      if (pattern == ContextPattern::for_id_bit(n, bit, inverted)) {
        info.cls = PatternClass::kSingleBit;
        info.id_bit = bit;
        info.inverted = inverted;
        return info;
      }
    }
  }

  info.cls = PatternClass::kComplex;
  return info;
}

std::vector<ContextPattern> all_patterns(std::size_t num_contexts) {
  MCFPGA_REQUIRE(num_contexts <= 16,
                 "exhaustive enumeration limited to 16 contexts");
  const std::size_t count = std::size_t{1} << num_contexts;
  std::vector<ContextPattern> out;
  out.reserve(count);
  for (std::size_t word = 0; word < count; ++word) {
    out.push_back(ContextPattern::from_word(word, num_contexts));
  }
  return out;
}

bool has_period(const ContextPattern& pattern, std::size_t period) {
  const std::size_t n = pattern.num_contexts();
  MCFPGA_REQUIRE(period >= 1 && period <= n, "period out of range");
  if (n % period != 0) {
    return false;
  }
  for (std::size_t c = period; c < n; ++c) {
    if (pattern.value_in(c) != pattern.value_in(c - period)) {
      return false;
    }
  }
  return true;
}

std::size_t smallest_period(const ContextPattern& pattern) {
  const std::size_t n = pattern.num_contexts();
  for (std::size_t period = 1; period < n; ++period) {
    if (n % period == 0 && has_period(pattern, period)) {
      return period;
    }
  }
  return n;
}

}  // namespace mcfpga::config
