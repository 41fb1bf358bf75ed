// Tests for the stage-based compile pipeline: stage-by-stage execution
// must reproduce the end-to-end compile() result exactly, and parallel
// per-context routing must be bit-identical to serial routing.
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/stages.hpp"
#include "route/router.hpp"
#include "workload/circuits.hpp"

namespace mcfpga::core {
namespace {

arch::FabricSpec small_spec() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;
  return spec;
}

netlist::MultiContextNetlist four_context_workload() {
  return workload::pipeline_workload(4, 8);
}

void expect_same_routing(const route::RouteResult& a,
                         const route::RouteResult& b) {
  ASSERT_EQ(a.success, b.success);
  ASSERT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t c = 0; c < a.nets.size(); ++c) {
    ASSERT_EQ(a.nets[c].size(), b.nets[c].size()) << "context " << c;
    for (std::size_t i = 0; i < a.nets[c].size(); ++i) {
      const auto& na = a.nets[c][i];
      const auto& nb = b.nets[c][i];
      EXPECT_EQ(na.name, nb.name);
      EXPECT_EQ(na.source, nb.source);
      ASSERT_EQ(na.paths.size(), nb.paths.size());
      for (std::size_t p = 0; p < na.paths.size(); ++p) {
        EXPECT_EQ(na.paths[p].sink, nb.paths[p].sink);
        EXPECT_EQ(na.paths[p].edges, nb.paths[p].edges);
        EXPECT_EQ(na.paths[p].diamond_count, nb.paths[p].diamond_count);
      }
    }
  }
  ASSERT_EQ(a.switch_patterns.size(), b.switch_patterns.size());
  for (std::size_t s = 0; s < a.switch_patterns.size(); ++s) {
    EXPECT_EQ(a.switch_patterns[s], b.switch_patterns[s]) << "switch " << s;
  }
  ASSERT_EQ(a.context_summary.size(), b.context_summary.size());
  for (std::size_t c = 0; c < a.context_summary.size(); ++c) {
    EXPECT_EQ(a.context_summary[c].nets, b.context_summary[c].nets);
    EXPECT_EQ(a.context_summary[c].wire_nodes_used,
              b.context_summary[c].wire_nodes_used);
    EXPECT_EQ(a.context_summary[c].switches_crossed,
              b.context_summary[c].switches_crossed);
  }
}

void expect_same_bitstream(const config::Bitstream& a,
                           const config::Bitstream& b) {
  ASSERT_EQ(a.num_contexts(), b.num_contexts());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.name(r), b.name(r)) << "row " << r;
    EXPECT_EQ(a.row(r).kind, b.row(r).kind) << "row " << r;
    EXPECT_EQ(a.row(r).pattern, b.row(r).pattern) << "row " << r;
  }
}

TEST(FlowStages, StageByStageMatchesEndToEndCompile) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  const CompileOptions options;

  const CompiledDesign reference = compile(nl, spec, options);

  FlowContext ctx = make_flow_context(nl, spec, options);
  TechMapStage().run(ctx);
  SharingStage().run(ctx);
  PlaneAllocStage().run(ctx);
  ClusterStage().run(ctx);
  PlaceStage().run(ctx);
  RouteStage().run(ctx);
  TimingStage().run(ctx);
  ProgramStage().run(ctx);
  const CompiledDesign manual = finalize_design(std::move(ctx));

  EXPECT_EQ(manual.fabric.width, reference.fabric.width);
  EXPECT_EQ(manual.fabric.height, reference.fabric.height);
  EXPECT_EQ(manual.netlist.total_lut_ops(), reference.netlist.total_lut_ops());
  EXPECT_EQ(manual.planes.slots.size(), reference.planes.slots.size());
  EXPECT_EQ(manual.clusters.size(), reference.clusters.size());
  EXPECT_EQ(manual.slot_cluster, reference.slot_cluster);
  EXPECT_EQ(manual.slot_output, reference.slot_output);
  EXPECT_EQ(manual.placement.cluster_pos, reference.placement.cluster_pos);
  EXPECT_EQ(manual.placement.io_pads, reference.placement.io_pads);
  expect_same_routing(manual.routing, reference.routing);
  expect_same_bitstream(manual.full_bitstream, reference.full_bitstream);
  ASSERT_EQ(manual.context_stats.size(), reference.context_stats.size());
  for (std::size_t c = 0; c < manual.context_stats.size(); ++c) {
    EXPECT_EQ(manual.context_stats[c].nets, reference.context_stats[c].nets);
    EXPECT_EQ(manual.context_stats[c].wire_nodes_used,
              reference.context_stats[c].wire_nodes_used);
    EXPECT_EQ(manual.context_stats[c].switches_crossed,
              reference.context_stats[c].switches_crossed);
    EXPECT_DOUBLE_EQ(manual.context_stats[c].critical_path,
                     reference.context_stats[c].critical_path);
  }
  EXPECT_EQ(manual.input_terminals, reference.input_terminals);
  EXPECT_EQ(manual.output_terminals, reference.output_terminals);
}

TEST(FlowStages, PipelineRecordsOneTimingPerStage) {
  const CompiledDesign d = compile(four_context_workload(), small_spec());
  ASSERT_EQ(d.stage_timings.size(), default_pipeline().size());
  const std::vector<std::string> expected = {
      "tech_map", "sharing", "plane_alloc", "cluster",
      "place",    "route",   "timing",      "program"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(d.stage_timings[i].name, expected[i]);
    EXPECT_GE(d.stage_timings[i].seconds, 0.0);
  }
}

TEST(FlowStages, ContextStatsMatchRouteSummaries) {
  const CompiledDesign d = compile(four_context_workload(), small_spec());
  ASSERT_EQ(d.routing.context_summary.size(), d.context_stats.size());
  for (std::size_t c = 0; c < d.context_stats.size(); ++c) {
    EXPECT_EQ(d.context_stats[c].nets, d.routing.nets[c].size());
    EXPECT_EQ(d.context_stats[c].wire_nodes_used,
              d.routing.context_summary[c].wire_nodes_used);
    EXPECT_EQ(d.context_stats[c].switches_crossed,
              d.routing.context_summary[c].switches_crossed);
  }
}

TEST(FlowStages, ParallelRoutingBitIdenticalToSerial) {
  // Compile the same 4-context workload with a serial router and with a
  // 4-worker router; every routed net, switch pattern, and bitstream row
  // must be bit-for-bit identical.
  const auto nl = four_context_workload();
  const auto spec = small_spec();

  CompileOptions serial;
  serial.router.num_threads = 1;
  CompileOptions parallel;
  parallel.router.num_threads = 4;

  const CompiledDesign ds = compile(nl, spec, serial);
  const CompiledDesign dp = compile(nl, spec, parallel);

  expect_same_routing(ds.routing, dp.routing);
  expect_same_bitstream(ds.full_bitstream, dp.full_bitstream);
  for (std::size_t c = 0; c < ds.context_stats.size(); ++c) {
    EXPECT_DOUBLE_EQ(ds.context_stats[c].critical_path,
                     dp.context_stats[c].critical_path);
  }
}

TEST(FlowStages, PlacerSeedIndependentOfFlowSeed) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  // An explicit placer seed pins the placement: the flow seed must not
  // leak into it.
  CompileOptions a;
  a.seed = 1;
  a.placer.seed = 7;
  CompileOptions b;
  b.seed = 2;
  b.placer.seed = 7;
  const CompiledDesign da = compile(nl, spec, a);
  const CompiledDesign db = compile(nl, spec, b);
  EXPECT_EQ(da.placement.cluster_pos, db.placement.cluster_pos);
  EXPECT_EQ(da.placement.io_pads, db.placement.io_pads);

  // A placer seed left unset inherits the flow seed.
  CompileOptions c;
  c.seed = 7;
  const CompiledDesign dc = compile(nl, spec, c);
  EXPECT_EQ(da.placement.cluster_pos, dc.placement.cluster_pos);
  EXPECT_EQ(da.placement.io_pads, dc.placement.io_pads);
}

TEST(FlowStages, MultiRestartPlacementRecordsPerRestartTimings) {
  CompileOptions options;
  options.placer.num_restarts = 3;
  const CompiledDesign d =
      compile(four_context_workload(), small_spec(), options);
  ASSERT_EQ(d.placement.restart_stats.size(), 3u);
  std::size_t restarts_logged = 0;
  for (const auto& t : d.stage_timings) {
    restarts_logged += t.name.rfind("place.restart", 0) == 0;
  }
  EXPECT_EQ(restarts_logged, 3u);
}

TEST(FlowStages, TimingStageReportsMatchContextStats) {
  const CompiledDesign d = compile(four_context_workload(), small_spec());
  ASSERT_EQ(d.timing_reports.size(), d.context_stats.size());
  for (std::size_t c = 0; c < d.timing_reports.size(); ++c) {
    const auto& r = d.timing_reports[c];
    EXPECT_DOUBLE_EQ(r.critical_path, d.context_stats[c].critical_path);
    EXPECT_GE(r.worst_slack, 0.0);
    EXPECT_GT(r.num_arcs, 0u);
    ASSERT_FALSE(r.critical_nodes.empty());
    EXPECT_DOUBLE_EQ(r.arrival[r.critical_nodes.back()], r.critical_path);
    ASSERT_EQ(r.arrival.size(), r.required.size());
    for (std::size_t n = 0; n < r.arrival.size(); ++n) {
      // Requirements are anchored at the critical path, so no node can be
      // required before it arrives.
      EXPECT_GE(r.required[n] - r.arrival[n], -1e-9);
    }
  }
}

TEST(FlowStages, RouterTimingSpecsInertWhenTimingModeOff) {
  // Passing timing specs to a router whose timing_mode is off must leave
  // the result bit-identical to routing without them (the regression
  // guarantee that timing_mode=off preserves pre-timing behavior).
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  FlowContext ctx = make_flow_context(nl, spec, CompileOptions{});
  TechMapStage().run(ctx);
  SharingStage().run(ctx);
  PlaneAllocStage().run(ctx);
  ClusterStage().run(ctx);
  PlaceStage().run(ctx);
  RouteStage().run(ctx);  // routes with timing_mode off, specs unused
  ASSERT_EQ(ctx.timing_specs.size(), nl.num_contexts());

  const route::Router router(*ctx.graph, ctx.options.router);
  const route::RouteResult with_specs =
      router.route(ctx.nets_per_context, &ctx.timing_specs);
  expect_same_routing(ctx.routing, with_specs);
}

TEST(FlowStages, TimingDrivenCompileDeterministicAcrossWorkerCounts) {
  // Criticality refresh happens inside each context's own negotiation, so
  // timing-driven routing stays bit-identical from serial to parallel.
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileOptions serial;
  serial.router.timing_mode = true;
  serial.placer.timing_mode = true;
  serial.router.num_threads = 1;
  CompileOptions parallel = serial;
  parallel.router.num_threads = 4;

  const CompiledDesign ds = compile(nl, spec, serial);
  const CompiledDesign dp = compile(nl, spec, parallel);
  expect_same_routing(ds.routing, dp.routing);
  expect_same_bitstream(ds.full_bitstream, dp.full_bitstream);
  ASSERT_EQ(ds.timing_reports.size(), dp.timing_reports.size());
  for (std::size_t c = 0; c < ds.timing_reports.size(); ++c) {
    EXPECT_DOUBLE_EQ(ds.timing_reports[c].critical_path,
                     dp.timing_reports[c].critical_path);
  }
}

TEST(FlowStages, ParallelRoutingBitIdenticalAcrossWorkerCounts) {
  // Drive the Router directly (heterogeneous contexts) at several worker
  // counts, including more workers than contexts.
  netlist::MultiContextNetlist mixed(4);
  mixed.context(0) = workload::ripple_carry_adder(3);
  mixed.context(1) = workload::comparator(4);
  mixed.context(2) = workload::parity_tree(6);
  mixed.context(3) = workload::ripple_carry_adder(2);

  CompileOptions base;
  base.router.num_threads = 1;
  const CompiledDesign reference = compile(mixed, small_spec(), base);
  for (const std::size_t workers : {2u, 3u, 8u}) {
    CompileOptions options;
    options.router.num_threads = workers;
    const CompiledDesign d = compile(mixed, small_spec(), options);
    expect_same_routing(reference.routing, d.routing);
  }
}

}  // namespace
}  // namespace mcfpga::core
