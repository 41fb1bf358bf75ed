// Integration tests: the complete flow (map -> place -> route -> program)
// with end-to-end verification of the fabric simulator against the netlist
// reference evaluator, plus MCFPGA-level reports.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "core/mcfpga.hpp"
#include "core/report.hpp"
#include "rcm/context_decoder.hpp"
#include "workload/circuits.hpp"
#include "workload/random_dfg.hpp"

namespace mcfpga::core {
namespace {

arch::FabricSpec default_spec() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 8;
  spec.double_length_tracks = 2;
  return spec;
}

netlist::MultiContextNetlist adder_in_all_contexts(std::size_t bits) {
  netlist::MultiContextNetlist nl(4);
  for (std::size_t c = 0; c < 4; ++c) {
    nl.context(c) = workload::ripple_carry_adder(bits);
  }
  return nl;
}

TEST(Flow, CompilesSharedAdderCompactly) {
  const auto nl = adder_in_all_contexts(3);
  const MCFPGA chip(nl, default_spec());
  const auto& d = chip.design();
  // Fully shared across contexts: every class is shared 4 ways, so the
  // slot count equals the single-context LUT count.
  EXPECT_EQ(d.planes.num_slots(), nl.context(0).num_lut_ops());
  EXPECT_EQ(d.sharing.merged_lut_ops(), 3 * nl.context(0).num_lut_ops());
  EXPECT_EQ(d.planes.duplicated_bits(), 0u);
}

TEST(Flow, EndToEndVerificationSharedAdder) {
  const MCFPGA chip(adder_in_all_contexts(3), default_spec());
  EXPECT_EQ(chip.verify(24, 11), 0u);
}

TEST(Flow, EndToEndVerificationPipelineWorkload) {
  const MCFPGA chip(workload::pipeline_workload(4, 5), default_spec());
  EXPECT_EQ(chip.verify(24, 13), 0u);
}

TEST(Flow, EndToEndVerificationHeterogeneousContexts) {
  // Four genuinely different circuits, one per context, over overlapping
  // input names.
  netlist::MultiContextNetlist nl(4);
  nl.context(0) = workload::ripple_carry_adder(2);
  nl.context(1) = workload::comparator(4);
  nl.context(2) = workload::parity_tree(6);
  nl.context(3) = workload::mux_tree(2);
  const MCFPGA chip(nl, default_spec());
  EXPECT_EQ(chip.verify(24, 17), 0u);
}

TEST(Flow, EndToEndVerificationRandomMultiContext) {
  workload::RandomMultiContextParams params;
  params.base.num_inputs = 6;
  params.base.num_nodes = 14;
  params.base.max_arity = 4;
  params.base.seed = 21;
  params.share_fraction = 0.4;
  const MCFPGA chip(workload::random_multi_context(params), default_spec());
  EXPECT_EQ(chip.verify(16, 19), 0u);
}

TEST(Flow, AutoSizeGrowsFabric) {
  arch::FabricSpec tiny = default_spec();
  tiny.width = 1;
  tiny.height = 1;
  const MCFPGA chip(adder_in_all_contexts(3), tiny);
  EXPECT_GE(chip.design().fabric.num_cells(),
            chip.design().clusters.size());
  EXPECT_EQ(chip.verify(8, 23), 0u);
}

TEST(Flow, AutoSizeDisabledThrowsWhenTooSmall) {
  arch::FabricSpec tiny = default_spec();
  tiny.width = 1;
  tiny.height = 1;
  CompileOptions options;
  options.auto_size = false;
  EXPECT_THROW(compile(adder_in_all_contexts(4), tiny, options), FlowError);
}

TEST(Flow, ContextCountMismatchThrows) {
  netlist::MultiContextNetlist nl(2);
  nl.context(0) = workload::parity_tree(4);
  nl.context(1) = workload::parity_tree(4);
  EXPECT_THROW(compile(nl, default_spec()), InvalidArgument);
}

TEST(Flow, RcmDecodersReproduceTheFullBitstream) {
  const MCFPGA chip(workload::pipeline_workload(4, 4), default_spec());
  const auto& bs = chip.design().full_bitstream;
  const rcm::ContextDecoder decoder(bs);
  EXPECT_TRUE(decoder.matches(bs));
}

TEST(Flow, BitstreamStatisticsAreSparse) {
  const MCFPGA chip(workload::pipeline_workload(4, 4), default_spec());
  const auto stats = chip.bitstream_stats();
  // A routed fabric leaves the overwhelming majority of switches
  // untouched: constant rows dominate, as the paper's premise requires.
  EXPECT_GT(stats.constant_fraction(), 0.8);
  EXPECT_LT(stats.avg_change_rate, 0.2);
  EXPECT_GT(stats.num_rows, 1000u);
}

TEST(Flow, TimingStatsArePopulated) {
  const MCFPGA chip(adder_in_all_contexts(3), default_spec());
  const auto& stats = chip.design().context_stats;
  ASSERT_EQ(stats.size(), 4u);
  for (const auto& s : stats) {
    EXPECT_GT(s.nets, 0u);
    EXPECT_GT(s.switches_crossed, 0u);
    EXPECT_GT(s.critical_path, 0.0);
  }
}

TEST(Flow, AreaReportOnCompiledDesign) {
  const MCFPGA chip(workload::pipeline_workload(4, 4), default_spec());
  const auto report = chip.area_report();
  EXPECT_GT(report.switch_rows, 0u);
  EXPECT_GT(report.ratio(), 0.0);
  EXPECT_LT(report.ratio(), 0.7);
  area::ComparisonOptions fepg;
  fepg.rcm_library = area::DeviceLibrary::fepg();
  EXPECT_LT(chip.area_report(fepg).ratio(), report.ratio());
}

TEST(Flow, DesignReportPrints) {
  const MCFPGA chip(adder_in_all_contexts(2), default_spec());
  std::ostringstream os;
  print_design_report(os, chip.design());
  EXPECT_NE(os.str().find("compiled design"), std::string::npos);
  EXPECT_NE(os.str().find("logic blocks"), std::string::npos);
  EXPECT_NE(os.str().find("anneal moves accepted"), std::string::npos);
}

TEST(Flow, LocalControlUsesNoMoreBlocksThanGlobal) {
  const auto nl = workload::pipeline_workload(4, 5);
  arch::FabricSpec local_spec = default_spec();
  local_spec.logic_block.control = lut::SizeControl::kLocal;
  arch::FabricSpec global_spec = default_spec();
  global_spec.logic_block.control = lut::SizeControl::kGlobal;
  const MCFPGA local(nl, local_spec);
  const MCFPGA global(nl, global_spec);
  EXPECT_LE(local.design().planes.num_slots(),
            global.design().planes.num_slots());
  EXPECT_LE(local.design().planes.duplicated_bits(),
            global.design().planes.duplicated_bits());
  // Both still verify.
  EXPECT_EQ(local.verify(8, 29), 0u);
  EXPECT_EQ(global.verify(8, 31), 0u);
}

}  // namespace
}  // namespace mcfpga::core
