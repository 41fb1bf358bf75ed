// Unit tests for the configuration model: context IDs (Table 2), pattern
// classification (Figs. 3-5), bitstreams and redundancy statistics (Table 1).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "config/bitstream.hpp"
#include "config/context_id.hpp"
#include "config/pattern.hpp"
#include "config/stats.hpp"

namespace mcfpga::config {
namespace {

TEST(ContextId, NumIdBits) {
  EXPECT_EQ(num_id_bits(2), 1u);
  EXPECT_EQ(num_id_bits(4), 2u);
  EXPECT_EQ(num_id_bits(8), 3u);
  EXPECT_EQ(num_id_bits(64), 6u);
  EXPECT_THROW(num_id_bits(3), InvalidArgument);
  EXPECT_THROW(num_id_bits(1), InvalidArgument);
  EXPECT_THROW(num_id_bits(128), InvalidArgument);
}

// Paper Table 2: S0 = 0,1,0,1 and S1 = 0,0,1,1 across contexts 0..3.
TEST(ContextId, MatchesPaperTable2) {
  const bool s0[] = {false, true, false, true};
  const bool s1[] = {false, false, true, true};
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(id_bit_value(c, 0), s0[c]) << "context " << c;
    EXPECT_EQ(id_bit_value(c, 1), s1[c]) << "context " << c;
  }
}

TEST(ContextId, BitNames) {
  EXPECT_EQ(id_bit_name(0, false), "S0");
  EXPECT_EQ(id_bit_name(1, true), "~S1");
}

TEST(ContextPattern, FromStringIsMsbFirst) {
  // "1000" = (C3,C2,C1,C0) = (1,0,0,0): on only in context 3 (Fig. 9).
  const auto p = ContextPattern::from_string("1000");
  EXPECT_TRUE(p.value_in(3));
  EXPECT_FALSE(p.value_in(0));
  EXPECT_FALSE(p.value_in(1));
  EXPECT_FALSE(p.value_in(2));
  EXPECT_EQ(p.to_string(), "1000");
}

TEST(ContextPattern, ForIdBitMatchesTable2) {
  const auto s0 = ContextPattern::for_id_bit(4, 0, false);
  EXPECT_EQ(s0.to_string(), "1010");  // C3..C0 = 1,0,1,0
  const auto ns0 = ContextPattern::for_id_bit(4, 0, true);
  EXPECT_EQ(ns0.to_string(), "0101");
  const auto s1 = ContextPattern::for_id_bit(4, 1, false);
  EXPECT_EQ(s1.to_string(), "1100");
}

TEST(ContextPattern, RejectsBadContextCounts) {
  EXPECT_THROW(ContextPattern(3), InvalidArgument);
  EXPECT_THROW(ContextPattern::from_string("101"), InvalidArgument);
  EXPECT_THROW(ContextPattern(128), InvalidArgument);
  EXPECT_THROW(ContextPattern(4).value_in(4), InvalidArgument);
}

TEST(ContextPattern, PacksEveryContextIntoOneWord) {
  // 64 contexts fill the word; values, word and text agree.
  ContextPattern p(64, true);
  EXPECT_EQ(p.word(), ~std::uint64_t{0});
  p.set_value(63, false);
  p.set_value(0, false);
  EXPECT_EQ(p.word(), (~std::uint64_t{0} >> 1) & ~std::uint64_t{1});
  EXPECT_EQ(p.to_string(), "0" + std::string(62, '1') + "0");
  EXPECT_EQ(ContextPattern(p.values()), p);
  // from_word drops bits beyond the context count.
  EXPECT_EQ(ContextPattern::from_word(0xf5, 4),
            ContextPattern::from_string("0101"));
  EXPECT_NE(ContextPattern(4), ContextPattern(8));
}

TEST(Classify, ConstantPatterns) {
  const auto zero = classify(ContextPattern::from_string("0000"));
  EXPECT_EQ(zero.cls, PatternClass::kConstant);
  EXPECT_FALSE(zero.constant_value);
  EXPECT_EQ(zero.describe(), "const 0");

  const auto one = classify(ContextPattern::from_string("1111"));
  EXPECT_EQ(one.cls, PatternClass::kConstant);
  EXPECT_TRUE(one.constant_value);
}

TEST(Classify, SingleBitPatterns) {
  // The four Fig. 4 patterns for 4 contexts.
  struct Case {
    const char* pattern;
    std::size_t bit;
    bool inverted;
  };
  const Case cases[] = {{"1010", 0, false},
                        {"0101", 0, true},
                        {"1100", 1, false},
                        {"0011", 1, true}};
  for (const auto& c : cases) {
    const auto info = classify(ContextPattern::from_string(c.pattern));
    EXPECT_EQ(info.cls, PatternClass::kSingleBit) << c.pattern;
    EXPECT_EQ(info.id_bit, c.bit) << c.pattern;
    EXPECT_EQ(info.inverted, c.inverted) << c.pattern;
  }
}

// Figs. 3-5: for 4 contexts the 16 patterns split 2 / 4 / 10.
TEST(Classify, CensusFourContexts) {
  std::size_t constant = 0;
  std::size_t single = 0;
  std::size_t complex_count = 0;
  for (const auto& p : all_patterns(4)) {
    switch (classify(p).cls) {
      case PatternClass::kConstant:
        ++constant;
        break;
      case PatternClass::kSingleBit:
        ++single;
        break;
      case PatternClass::kComplex:
        ++complex_count;
        break;
    }
  }
  EXPECT_EQ(constant, 2u);
  EXPECT_EQ(single, 4u);
  EXPECT_EQ(complex_count, 10u);
}

// Generalization: n contexts always give 2 constants and 2*log2(n)
// single-bit patterns.
TEST(Classify, CensusGeneralizes) {
  for (const std::size_t n : {2u, 8u, 16u}) {
    std::size_t constant = 0;
    std::size_t single = 0;
    for (const auto& p : all_patterns(n)) {
      const auto cls = classify(p).cls;
      constant += cls == PatternClass::kConstant;
      single += cls == PatternClass::kSingleBit;
    }
    EXPECT_EQ(constant, 2u) << n;
    EXPECT_EQ(single, 2 * num_id_bits(n)) << n;
  }
}

TEST(Pattern, Periodicity) {
  EXPECT_EQ(smallest_period(ContextPattern::from_string("0000")), 1u);
  EXPECT_EQ(smallest_period(ContextPattern::from_string("0101")), 2u);
  EXPECT_EQ(smallest_period(ContextPattern::from_string("1000")), 4u);
  EXPECT_TRUE(has_period(ContextPattern::from_string("0101"), 2));
  EXPECT_FALSE(has_period(ContextPattern::from_string("0100"), 2));
  EXPECT_THROW(has_period(ContextPattern::from_string("0101"), 0),
               InvalidArgument);
}

TEST(Bitstream, AddAndQueryRows) {
  Bitstream bs(4);
  const std::size_t i =
      bs.add_row("sw0", ResourceKind::kRoutingSwitch,
                 ContextPattern::from_string("0101"));
  bs.add_row("lut0", ResourceKind::kLutBit,
             ContextPattern::from_string("1111"));
  EXPECT_EQ(bs.num_rows(), 2u);
  EXPECT_EQ(bs.name(i), "sw0");
  EXPECT_EQ(bs.count_kind(ResourceKind::kRoutingSwitch), 1u);
  EXPECT_EQ(bs.count_kind(ResourceKind::kLutBit), 1u);
  EXPECT_EQ(bs.count_kind(ResourceKind::kControlBit), 0u);
  EXPECT_THROW(bs.row(5), InvalidArgument);
}

TEST(Bitstream, PlaneExtraction) {
  Bitstream bs(4);
  bs.add_row("a", ResourceKind::kRoutingSwitch,
             ContextPattern::from_string("1000"));
  bs.add_row("b", ResourceKind::kRoutingSwitch,
             ContextPattern::from_string("0101"));
  // Context 0: a=0, b=1 -> plane bits (row0, row1) = (0, 1).
  EXPECT_EQ(bs.plane(0).to_string(), "10");
  // Context 3: a=1, b=0.
  EXPECT_EQ(bs.plane(3).to_string(), "01");
  EXPECT_THROW(bs.plane(4), InvalidArgument);
}

TEST(Bitstream, RejectsContextMismatch) {
  Bitstream bs(4);
  EXPECT_THROW(bs.add_row("x", ResourceKind::kLutBit, ContextPattern(8)),
               InvalidArgument);
  Bitstream other(8);
  EXPECT_THROW(bs.append(other), InvalidArgument);
}

TEST(Bitstream, Append) {
  Bitstream a(4);
  a.add_row("a", ResourceKind::kLutBit, ContextPattern(4, true));
  Bitstream b(4);
  b.add_row("b", ResourceKind::kLutBit, ContextPattern(4, false));
  b.add_row("c", ResourceKind::kControlBit, ContextPattern(4, true));
  a.append(b);
  EXPECT_EQ(a.num_rows(), 3u);
  EXPECT_EQ(a.name(1), "b");
  a.append_rows(b, 1, 1);
  a.append_rows(a, 0, 2);  // a range of itself
  ASSERT_EQ(a.num_rows(), 6u);
  EXPECT_EQ(a.name(3), "c");
  EXPECT_EQ(a.row(3).kind, ResourceKind::kControlBit);
  EXPECT_EQ(a.name(4), "a");
  EXPECT_EQ(a.name(5), "b");
  EXPECT_THROW(a.append_rows(b, 1, 2), InvalidArgument);
}

/// Names switch i "sw<i>".
class NumberedNames : public SwitchNameSource {
 public:
  const std::string& switch_name(std::size_t id) const override {
    names_.push_back("sw" + std::to_string(id));
    return names_.back();
  }

 private:
  mutable std::deque<std::string> names_;
};

TEST(Bitstream, SwitchRowsNameThroughTheirSource) {
  Bitstream bs(4);
  bs.add_switch_row(7, ContextPattern::from_string("0110"));
  bs.add_row("lut", ResourceKind::kLutBit, ContextPattern(4));
  EXPECT_EQ(bs.row(0).kind, ResourceKind::kRoutingSwitch);
  EXPECT_THROW(bs.name(0), InvalidArgument);  // no source yet
  EXPECT_EQ(bs.name(1), "lut");
  const auto names = std::make_shared<const NumberedNames>();
  bs.set_switch_names(names);
  EXPECT_EQ(bs.name(0), "sw7");

  // Copies share the source; appending switch rows adopts it, and rows
  // of another fabric's source are refused.
  Bitstream copy(4);
  copy.append(bs);
  EXPECT_EQ(copy.switch_names(), bs.switch_names());
  EXPECT_EQ(copy.name(0), "sw7");
  Bitstream other(4);
  other.add_switch_row(1, ContextPattern(4));
  other.set_switch_names(std::make_shared<const NumberedNames>());
  EXPECT_THROW(copy.append(other), InvalidArgument);

  copy.set_pattern(0, ContextPattern::from_string("1111"));
  EXPECT_EQ(copy.row(0).pattern.to_string(), "1111");
  EXPECT_EQ(bs.row(0).pattern.to_string(), "0110");
  EXPECT_THROW(copy.set_pattern(0, ContextPattern(8)), InvalidArgument);
}

// Table 1 fixture: G3/G9 self-redundant, G2 == G4 regular, G1 complex.
TEST(Stats, PaperTable1Example) {
  const Bitstream bs = paper_table1_example();
  ASSERT_EQ(bs.num_rows(), 5u);
  const BitstreamStats stats = compute_stats(bs);
  EXPECT_EQ(stats.constant_rows, 2u);     // G3, G9
  EXPECT_EQ(stats.single_bit_rows, 2u);   // G2, G4 (= ~S0)
  EXPECT_EQ(stats.complex_rows, 1u);      // G1
  EXPECT_EQ(stats.largest_identical_group, 2u);  // G2 == G4
  EXPECT_EQ(stats.rows_in_shared_groups, 2u);
  EXPECT_EQ(stats.distinct_patterns, 4u);
  // G2/G4 are periodic with period 2 (the "repeating (0,1)" regularity).
  EXPECT_EQ(stats.period_histogram.at(2), 2u);
}

TEST(Stats, ChangeRateOfConstantBitstreamIsZero) {
  Bitstream bs(4);
  for (int i = 0; i < 10; ++i) {
    bs.add_row("r" + std::to_string(i), ResourceKind::kRoutingSwitch,
               ContextPattern(4, i % 2 == 0));
  }
  const BitstreamStats stats = compute_stats(bs);
  EXPECT_DOUBLE_EQ(stats.avg_change_rate, 0.0);
  EXPECT_DOUBLE_EQ(stats.max_change_rate, 0.0);
  EXPECT_DOUBLE_EQ(stats.changing_row_fraction, 0.0);
}

TEST(Stats, ChangeRateCountsTransitions) {
  Bitstream bs(4);
  // One row toggling at every transition: rate = 1.0 on that row.
  bs.add_row("t", ResourceKind::kRoutingSwitch,
             ContextPattern::from_string("0101"));
  bs.add_row("c", ResourceKind::kRoutingSwitch,
             ContextPattern::from_string("0000"));
  const BitstreamStats stats = compute_stats(bs);
  EXPECT_DOUBLE_EQ(stats.avg_change_rate, 0.5);  // 1 of 2 rows toggles
  EXPECT_DOUBLE_EQ(stats.max_change_rate, 0.5);
  EXPECT_DOUBLE_EQ(stats.changing_row_fraction, 0.5);
}

TEST(Stats, PrintIsWellFormed) {
  std::ostringstream os;
  print_stats(os, compute_stats(paper_table1_example()), "table 1");
  EXPECT_NE(os.str().find("table 1"), std::string::npos);
  EXPECT_NE(os.str().find("constant rows"), std::string::npos);
}

TEST(Stats, EmptyBitstream) {
  const BitstreamStats stats = compute_stats(Bitstream(4));
  EXPECT_EQ(stats.num_rows, 0u);
  EXPECT_DOUBLE_EQ(stats.constant_fraction(), 0.0);
}

}  // namespace
}  // namespace mcfpga::config
