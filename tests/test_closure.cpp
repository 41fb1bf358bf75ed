// Tests for the timing-closure feedback loop (core/closure.hpp): a
// single-iteration closure pipeline is fingerprint-identical to the plain
// eight-stage pipeline, multi-iteration closure is deterministic across
// router/placer worker counts and restart counts, the loop exits early
// once worst slack stops improving, and — property-tested on random
// workloads — closure never finishes with worse worst slack than the
// one-shot flow.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "core/closure.hpp"
#include "core/flow.hpp"
#include "core/stages.hpp"
#include "place/placer.hpp"
#include "workload/circuits.hpp"
#include "workload/random_dfg.hpp"

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
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t c = 0; c < a.nets.size(); ++c) {
    ASSERT_EQ(a.nets[c].size(), b.nets[c].size()) << "context " << c;
    for (std::size_t i = 0; i < a.nets[c].size(); ++i) {
      const auto& na = a.nets[c][i];
      const auto& nb = b.nets[c][i];
      EXPECT_EQ(na.source, nb.source);
      ASSERT_EQ(na.paths.size(), nb.paths.size());
      for (std::size_t p = 0; p < na.paths.size(); ++p) {
        EXPECT_EQ(na.paths[p].sink, nb.paths[p].sink);
        EXPECT_EQ(na.paths[p].edges, nb.paths[p].edges);
      }
    }
  }
  ASSERT_EQ(a.switch_patterns.size(), b.switch_patterns.size());
  for (std::size_t s = 0; s < a.switch_patterns.size(); ++s) {
    EXPECT_EQ(a.switch_patterns[s], b.switch_patterns[s]) << "switch " << s;
  }
}

void expect_same_bitstream(const config::Bitstream& a,
                           const config::Bitstream& b) {
  ASSERT_EQ(a.num_contexts(), b.num_contexts());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.name(r), b.name(r)) << "row " << r;
    EXPECT_EQ(a.row(r).pattern, b.row(r).pattern) << "row " << r;
  }
}

void expect_same_design(const CompiledDesign& a, const CompiledDesign& b) {
  EXPECT_EQ(a.placement.cluster_pos, b.placement.cluster_pos);
  EXPECT_EQ(a.placement.io_pads, b.placement.io_pads);
  expect_same_routing(a.routing, b.routing);
  expect_same_bitstream(a.full_bitstream, b.full_bitstream);
}

double worst_critical_path(const CompiledDesign& d) {
  double worst = 0.0;
  for (const auto& s : d.context_stats) {
    worst = std::max(worst, s.critical_path);
  }
  return worst;
}

CompiledDesign compile_via(const std::vector<const Stage*>& stages,
                           const netlist::MultiContextNetlist& nl,
                           const arch::FabricSpec& spec,
                           const CompileOptions& options) {
  FlowContext ctx = make_flow_context(nl, spec, options);
  run_pipeline(ctx, stages);
  return finalize_design(std::move(ctx));
}

TEST(ClosureLoop, SingleIterationMatchesPlainPipeline) {
  // The closure pipeline at closure_iterations == 1 IS the plain pipeline:
  // placement, routed edges and the full bitstream must be bit-identical,
  // with both timing modes off and on.
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  for (const bool timing_on : {false, true}) {
    CompileOptions options;
    options.placer.timing_mode = timing_on;
    options.router.timing_mode = timing_on;
    const CompiledDesign plain =
        compile_via(default_pipeline(), nl, spec, options);
    const CompiledDesign closed =
        compile_via(closure_pipeline(), nl, spec, options);
    expect_same_design(plain, closed);

    // The loop still records its single iteration, scored at slack 0.
    ASSERT_EQ(closed.closure_stats.size(), 1u);
    EXPECT_EQ(closed.closure_stats[0].iteration, 1u);
    EXPECT_DOUBLE_EQ(closed.closure_stats[0].worst_slack, 0.0);
    EXPECT_DOUBLE_EQ(closed.closure_stats[0].critical_path,
                     worst_critical_path(closed));
    EXPECT_GT(closed.closure_stats[0].wirelength, 0u);
  }
}

TEST(ClosureLoop, CompileDispatchesOnClosureIterations) {
  // compile() with closure_iterations >= 2 runs the closure pipeline (the
  // "closure" stage timing replaces place/route/timing), and the recorded
  // iterations never exceed the budget.
  CompileOptions options;
  options.closure_iterations = 3;
  const CompiledDesign d =
      compile(four_context_workload(), small_spec(), options);
  ASSERT_FALSE(d.closure_stats.empty());
  EXPECT_LE(d.closure_stats.size(), 3u);
  bool saw_closure_stage = false;
  for (const auto& t : d.stage_timings) {
    saw_closure_stage |= t.name == "closure";
    EXPECT_NE(t.name, "place");
    EXPECT_NE(t.name, "route");
  }
  EXPECT_TRUE(saw_closure_stage);
  // Per-iteration sub-timings parallel the stats.
  std::size_t iter_timings = 0;
  for (const auto& t : d.stage_timings) {
    iter_timings += t.name.rfind("closure.iter", 0) == 0;
  }
  EXPECT_EQ(iter_timings, d.closure_stats.size());
}

TEST(ClosureLoop, DeterministicAcrossWorkerAndRestartCounts) {
  // The loop's re-place and re-route inherit the flow's determinism
  // guarantees: any router/placer worker count, and multi-restart
  // re-anneals, give bit-identical closed designs.
  const auto nl = four_context_workload();
  const auto spec = small_spec();

  CompileOptions base;
  base.closure_iterations = 3;
  base.placer.timing_mode = true;
  base.router.timing_mode = true;
  base.placer.num_restarts = 2;
  base.placer.num_threads = 1;
  base.router.num_threads = 1;
  const CompiledDesign reference = compile(nl, spec, base);
  ASSERT_FALSE(reference.closure_stats.empty());

  for (const std::size_t router_threads : {2u, 4u}) {
    for (const std::size_t placer_threads : {2u, 3u}) {
      CompileOptions options = base;
      options.router.num_threads = router_threads;
      options.placer.num_threads = placer_threads;
      const CompiledDesign d = compile(nl, spec, options);
      expect_same_design(reference, d);
      ASSERT_EQ(d.closure_stats.size(), reference.closure_stats.size());
      for (std::size_t i = 0; i < d.closure_stats.size(); ++i) {
        EXPECT_DOUBLE_EQ(d.closure_stats[i].worst_slack,
                         reference.closure_stats[i].worst_slack);
        EXPECT_EQ(d.closure_stats[i].wirelength,
                  reference.closure_stats[i].wirelength);
      }
    }
  }
}

TEST(ClosureLoop, EarlyExitWhenSlackStopsImproving) {
  // The loop stops at the first iteration that does not strictly improve
  // the best worst slack, instead of burning the full budget: the record
  // ends at that iteration, or at closure_iterations if every refine
  // improved.
  CompileOptions options;
  options.closure_iterations = 6;
  const CompiledDesign d =
      compile(four_context_workload(), small_spec(), options);
  ASSERT_FALSE(d.closure_stats.empty());
  std::size_t expected_size = options.closure_iterations;
  double best_slack = d.closure_stats[0].worst_slack;
  for (std::size_t i = 0; i < d.closure_stats.size(); ++i) {
    EXPECT_EQ(d.closure_stats[i].iteration, i + 1);
    if (i > 0) {
      if (d.closure_stats[i].worst_slack <= best_slack) {
        expected_size = i + 1;
        break;
      }
      best_slack = d.closure_stats[i].worst_slack;
    }
  }
  EXPECT_EQ(d.closure_stats.size(), expected_size);
}

TEST(ClosureLoop, FinalDesignIsTheBestRecordedIteration) {
  // The loop restores the best-worst-slack iteration, so the final
  // critical path equals the minimum over all recorded iterations.
  CompileOptions options;
  options.closure_iterations = 4;
  options.placer.timing_mode = true;
  options.router.timing_mode = true;
  const CompiledDesign d =
      compile(four_context_workload(), small_spec(), options);
  ASSERT_FALSE(d.closure_stats.empty());
  double best = d.closure_stats[0].critical_path;
  for (const auto& s : d.closure_stats) {
    best = std::min(best, s.critical_path);
  }
  EXPECT_DOUBLE_EQ(worst_critical_path(d), best);
}

TEST(ClosureLoop, NeverWorseThanOneShotOnRandomWorkloads) {
  // Property: over random multi-context workloads, the closed design's
  // worst critical path never exceeds the one-shot flow's (iteration 1 of
  // the loop IS the one-shot flow, and the loop keeps its best iteration).
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    workload::RandomMultiContextParams params;
    params.base.num_inputs = 6;
    params.base.num_nodes = 16;
    params.base.max_arity = 3;
    params.base.seed = seed;
    params.share_fraction = 0.4;
    const auto nl = workload::random_multi_context(params);

    CompileOptions one_shot;
    one_shot.placer.timing_mode = true;
    one_shot.router.timing_mode = true;
    CompileOptions closed = one_shot;
    closed.closure_iterations = 3;

    const double p_one = worst_critical_path(
        compile(nl, small_spec(), one_shot));
    const CompiledDesign d = compile(nl, small_spec(), closed);
    EXPECT_LE(worst_critical_path(d), p_one + 1e-9) << "seed " << seed;
    // Iteration 1 inside the loop is the one-shot flow, bit for bit.
    ASSERT_FALSE(d.closure_stats.empty());
    EXPECT_DOUBLE_EQ(d.closure_stats[0].critical_path, p_one);
  }
}

TEST(ClosureLoop, RejectsBadClosureOptions) {
  const auto nl = four_context_workload();
  CompileOptions options;
  options.closure_iterations = 0;
  EXPECT_THROW(compile(nl, small_spec(), options), InvalidArgument);
}

TEST(ClosureLoop, RoutedTreesStaySingleDrivenUnderUpstreamDelaySeeding) {
  // Timing-driven expansion seeds reused tree wire at its upstream delay;
  // an aggressive criticality-exponent ramp makes the congestion share of
  // the cost tiny, which is exactly the regime where relaxing an
  // already-in-tree node below its seed would back-trace a second switch
  // into it.  Every node of every routed net must keep exactly one
  // driving edge per context.
  for (std::uint64_t seed : {11u, 29u}) {
    workload::RandomMultiContextParams params;
    params.base.num_inputs = 6;
    params.base.num_nodes = 16;
    params.base.max_arity = 3;
    params.base.seed = seed;
    params.share_fraction = 0.4;
    CompileOptions options;
    options.placer.timing_mode = true;
    options.router.timing_mode = true;
    options.router.criticality_exponent_schedule = {1.0, 1.0, 8.0};
    options.closure_iterations = 3;
    const CompiledDesign d =
        compile(workload::random_multi_context(params), small_spec(),
                options);
    const arch::RoutingGraph graph(d.fabric);
    for (std::size_t c = 0; c < d.routing.nets.size(); ++c) {
      for (const auto& net : d.routing.nets[c]) {
        std::map<arch::NodeId, arch::EdgeId> driver_of;
        for (const auto& path : net.paths) {
          for (const arch::EdgeId e : path.edges) {
            const arch::NodeId to = graph.edge(e).to;
            const auto [it, inserted] = driver_of.emplace(to, e);
            EXPECT_TRUE(inserted || it->second == e)
                << "node " << to << " driven by two switches (context " << c
                << ", net " << net.name << ")";
          }
        }
      }
    }
  }
}

TEST(PlacerWarmStart, DeterministicAndValidated) {
  // The closure loop's re-place warm-starts the anneal; the warm start
  // must be deterministic and reject placements that do not match the
  // problem.
  const arch::RoutingGraph graph(small_spec());
  place::PlacementProblem prob;
  prob.num_clusters = 6;
  prob.num_io_terminals = 2;
  for (std::size_t i = 0; i + 1 < prob.num_clusters; ++i) {
    place::PlacementNet net;
    net.driver = place::Terminal::cluster(i);
    net.sinks = {place::Terminal::cluster(i + 1)};
    prob.nets.push_back(net);
  }
  place::PlacerOptions options;
  options.seed = 5;
  const place::Placement cold = place::place(prob, graph, options);

  place::PlacerOptions refine = options;
  refine.sweeps = 8;
  refine.initial_temperature_factor = 0.02;
  const place::Placement warm_a = place::place(prob, graph, refine, &cold);
  const place::Placement warm_b = place::place(prob, graph, refine, &cold);
  EXPECT_EQ(warm_a.cluster_pos, warm_b.cluster_pos);
  EXPECT_EQ(warm_a.io_pads, warm_b.io_pads);
  EXPECT_DOUBLE_EQ(warm_a.cost, warm_b.cost);

  // Every cluster still sits on a unique cell, every terminal on a
  // unique pad.
  std::vector<std::pair<std::size_t, std::size_t>> cells = warm_a.cluster_pos;
  std::sort(cells.begin(), cells.end());
  EXPECT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end());
  std::vector<std::size_t> pads = warm_a.io_pads;
  std::sort(pads.begin(), pads.end());
  EXPECT_EQ(std::adjacent_find(pads.begin(), pads.end()), pads.end());

  place::Placement mismatched = cold;
  mismatched.cluster_pos.pop_back();
  EXPECT_THROW(place::place(prob, graph, refine, &mismatched),
               InvalidArgument);
}

}  // namespace
}  // namespace mcfpga::core
