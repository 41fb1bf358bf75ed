// Tests for the content-addressed stage cache and the delta-recompile
// driver (src/cache/): cache-enabled compiles are bit-identical to
// uncached ones (cold and warm, across timing modes and closure), cache
// hits are shared across worker counts, the LRU bounds hold, pattern
// interning refcounts compose with eviction, delta recompiles of edited
// netlists stay functionally correct with full-recompile QoR, a
// StageObserver can cancel either path without poisoning the service, and
// concurrent compiles on one service match serial ones bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <exception>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/routing_graph.hpp"
#include "cache/incremental.hpp"
#include "cache/key.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/serialize.hpp"
#include "core/flow.hpp"
#include "netlist/eval.hpp"
#include "sim/simulator.hpp"
#include "workload/circuits.hpp"
#include "workload/edits.hpp"

namespace mcfpga::cache {
namespace {

arch::FabricSpec small_spec() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;
  return spec;
}

netlist::MultiContextNetlist four_context_workload(std::size_t width = 8) {
  return workload::pipeline_workload(4, width);
}

void expect_same_design(const core::CompiledDesign& a,
                        const core::CompiledDesign& b) {
  EXPECT_EQ(a.placement.cluster_pos, b.placement.cluster_pos);
  EXPECT_EQ(a.placement.io_pads, b.placement.io_pads);
  ASSERT_EQ(a.routing.success, b.routing.success);
  ASSERT_EQ(a.routing.nets.size(), b.routing.nets.size());
  for (std::size_t c = 0; c < a.routing.nets.size(); ++c) {
    ASSERT_EQ(a.routing.nets[c].size(), b.routing.nets[c].size());
    for (std::size_t i = 0; i < a.routing.nets[c].size(); ++i) {
      const auto& na = a.routing.nets[c][i];
      const auto& nb = b.routing.nets[c][i];
      EXPECT_EQ(na.source, nb.source);
      ASSERT_EQ(na.paths.size(), nb.paths.size());
      for (std::size_t p = 0; p < na.paths.size(); ++p) {
        EXPECT_EQ(na.paths[p].sink, nb.paths[p].sink);
        EXPECT_EQ(na.paths[p].edges, nb.paths[p].edges);
      }
    }
  }
  ASSERT_EQ(a.routing.switch_patterns.size(), b.routing.switch_patterns.size());
  for (std::size_t s = 0; s < a.routing.switch_patterns.size(); ++s) {
    EXPECT_EQ(a.routing.switch_patterns[s], b.routing.switch_patterns[s]);
  }
  ASSERT_EQ(a.context_stats.size(), b.context_stats.size());
  for (std::size_t c = 0; c < a.context_stats.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.context_stats[c].critical_path,
                     b.context_stats[c].critical_path);
    EXPECT_EQ(a.context_stats[c].wire_nodes_used,
              b.context_stats[c].wire_nodes_used);
  }
  EXPECT_EQ(config::to_text(a.full_bitstream), config::to_text(b.full_bitstream));
}

/// Simulates the programmed fabric against netlist::evaluate on `source`.
void expect_functionally_correct(const core::CompiledDesign& design,
                                 const netlist::MultiContextNetlist& source) {
  arch::RoutingGraph graph(design.fabric);
  const sim::FabricSimulator simulator(graph, design.program);
  Rng rng(123);
  for (std::size_t c = 0; c < source.num_contexts(); ++c) {
    const netlist::Dfg& dfg = source.context(c);
    for (std::size_t v = 0; v < 8; ++v) {
      netlist::ValueMap inputs;
      for (const auto& node : dfg.nodes()) {
        if (node.type == netlist::NodeType::kPrimaryInput) {
          inputs[node.name] = rng.next_bool();
        }
      }
      const netlist::ValueMap expected = netlist::evaluate(dfg, inputs);
      const netlist::ValueMap actual = simulator.eval(c, inputs);
      for (const auto& [name, value] : expected) {
        const auto it = actual.find(name);
        ASSERT_NE(it, actual.end()) << "missing output " << name;
        EXPECT_EQ(it->second, value)
            << "context " << c << " output " << name;
      }
    }
  }
}

double worst_critical_path(const core::CompiledDesign& design) {
  double worst = 0.0;
  for (const auto& s : design.context_stats) {
    worst = std::max(worst, s.critical_path);
  }
  return worst;
}

std::size_t total_wirelength(const core::CompiledDesign& design) {
  std::size_t total = 0;
  for (const auto& s : design.context_stats) {
    total += s.wire_nodes_used;
  }
  return total;
}

/// First LUT-op node index of context 0 with at least `min_index` nodes
/// before it (so rewire edits have retarget candidates).
std::size_t pick_lut_node(const netlist::MultiContextNetlist& nl,
                          std::size_t min_index = 2) {
  const netlist::Dfg& dfg = nl.context(0);
  for (std::size_t i = min_index; i < dfg.num_nodes(); ++i) {
    if (dfg.node(static_cast<netlist::NodeRef>(i)).type ==
        netlist::NodeType::kLutOp) {
      return i;
    }
  }
  ADD_FAILURE() << "workload has no LUT node";
  return 0;
}

std::vector<core::CompileOptions> config_matrix() {
  std::vector<core::CompileOptions> matrix;
  core::CompileOptions base;
  matrix.push_back(base);
  core::CompileOptions placer_timing = base;
  placer_timing.placer.timing_mode = true;
  matrix.push_back(placer_timing);
  core::CompileOptions router_timing = base;
  router_timing.router.timing_mode = true;
  matrix.push_back(router_timing);
  core::CompileOptions both = placer_timing;
  both.router.timing_mode = true;
  matrix.push_back(both);
  core::CompileOptions closure = both;
  closure.closure_iterations = 3;
  matrix.push_back(closure);
  return matrix;
}

// --- cold/warm bit-identity -------------------------------------------------

TEST(StageCache, ColdAndWarmCompilesMatchUncachedBitForBit) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  for (const auto& opts : config_matrix()) {
    const core::CompiledDesign plain = core::compile(nl, spec, opts);

    CompileService service;
    const Compiled cold = service.compile(nl, spec, opts);
    expect_same_design(plain, cold.design);
    EXPECT_EQ(cold.design.cache.hits, 0u);
    EXPECT_GT(cold.design.cache.misses, 0u);

    const Compiled warm = service.compile(nl, spec, opts);
    expect_same_design(plain, warm.design);
    EXPECT_EQ(warm.design.cache.misses, 0u)
        << "closure=" << opts.closure_iterations;
    EXPECT_EQ(warm.design.cache.hits,
              opts.closure_iterations >= 2 ? 6u : 8u);
  }
}

TEST(StageCache, HitsAreSharedAcrossWorkerCounts) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;

  core::CompileOptions serial;
  serial.placer.num_threads = 1;
  serial.router.num_threads = 1;
  const Compiled cold = service.compile(nl, spec, serial);

  core::CompileOptions parallel = serial;
  parallel.placer.num_threads = 4;
  parallel.router.num_threads = 4;
  const Compiled warm = service.compile(nl, spec, parallel);
  // Worker counts never change results, so they are excluded from the
  // content keys: the parallel compile is a pure replay.
  EXPECT_EQ(warm.design.cache.misses, 0u);
  expect_same_design(cold.design, warm.design);
}

// --- cache bounds -----------------------------------------------------------

TEST(StageCache, LruEvictionHoldsEntryBound) {
  // Room for one pipeline's artifacts (8) but not three: the bound must
  // hold throughout while the freshest design stays fully resident.
  IncrementalOptions options;
  options.limits.max_entries = 10;
  CompileService service(options);
  const auto spec = small_spec();
  for (const std::size_t width : {6u, 8u, 10u}) {
    service.compile(four_context_workload(width), spec);
    EXPECT_LE(service.artifacts().num_entries(), 10u);
  }
  EXPECT_GT(service.artifacts().counters().evictions, 0u);
  // The freshest artifacts still replay despite the churn.
  const Compiled warm = service.compile(four_context_workload(10), spec);
  EXPECT_EQ(warm.design.cache.misses, 0u);
}

TEST(StageCache, ByteBoundNeverEvictsTheSoleEntry) {
  IncrementalOptions options;
  options.limits.max_bytes = 1;  // every artifact is over budget
  CompileService service(options);
  service.compile(four_context_workload(), small_spec());
  EXPECT_EQ(service.artifacts().num_entries(), 1u);
  EXPECT_GT(service.artifacts().counters().evictions, 0u);
}

// --- pattern interning ------------------------------------------------------

TEST(PatternInterner, RefcountsDedupAndLowestFirstRecycling) {
  PatternInterner interner;
  const config::ContextPattern a(BitVector::from_string("0101"));
  const config::ContextPattern b(BitVector::from_string("1111"));

  const auto id_a = interner.intern(a);
  EXPECT_EQ(interner.intern(config::ContextPattern(
                BitVector::from_string("0101"))),
            id_a);
  EXPECT_EQ(interner.ref_count(id_a), 2u);
  EXPECT_EQ(interner.dedup_hits(), 1u);
  EXPECT_EQ(interner.num_live(), 1u);

  const auto id_b = interner.intern(b);
  EXPECT_NE(id_b, id_a);
  EXPECT_EQ(interner.num_live(), 2u);

  interner.release(id_a);
  EXPECT_EQ(interner.ref_count(id_a), 1u);
  interner.release(id_a);
  EXPECT_EQ(interner.ref_count(id_a), 0u);
  EXPECT_EQ(interner.num_live(), 1u);
  EXPECT_THROW(interner.release(id_a), InvalidArgument);

  // The dead id is recycled lowest-first for the next new pattern.
  const auto id_c = interner.intern(config::ContextPattern(
      BitVector::from_string("0011")));
  EXPECT_EQ(id_c, id_a);
}

TEST(PatternInterner, PatternSetRetainsOnCopyReleasesOnDestroy) {
  PatternInterner interner;
  const config::ContextPattern p(BitVector::from_string("0110"));
  {
    PatternSet set(&interner);
    set.add(p);
    set.add(p);  // duplicate id, second reference
    ASSERT_EQ(set.size(), 2u);
    EXPECT_EQ(set.ids()[0], set.ids()[1]);
    EXPECT_EQ(interner.ref_count(set.ids()[0]), 2u);
    {
      const PatternSet copy = set;
      EXPECT_EQ(interner.ref_count(set.ids()[0]), 4u);
    }
    EXPECT_EQ(interner.ref_count(set.ids()[0]), 2u);
  }
  EXPECT_EQ(interner.num_live(), 0u);
}

TEST(StageCache, CachedDesignsDedupSwitchPatterns) {
  CompileService service;
  const auto spec = small_spec();
  service.compile(four_context_workload(), spec);
  const std::size_t live_after_one = service.patterns().num_live();
  EXPECT_GT(live_after_one, 0u);
  // A second design reuses mostly the same patterns (all-zero rows alone
  // dedup massively), so the live count grows far slower than the stores.
  service.compile(four_context_workload(10), spec);
  EXPECT_GT(service.patterns().dedup_hits(), service.patterns().num_live());
}

// --- content keys -----------------------------------------------------------

TEST(CacheKeys, DistinguishInputsAndChainStages) {
  const auto nl = four_context_workload();
  const auto other = four_context_workload(10);
  const auto spec = small_spec();
  const core::CompileOptions opts;

  const auto base = flow_base_key(nl, spec, opts);
  EXPECT_NE(base, flow_base_key(other, spec, opts));

  auto wider = spec;
  wider.channel_width += 2;
  EXPECT_NE(base, flow_base_key(nl, wider, opts));

  auto seeded = opts;
  seeded.seed = 2;
  EXPECT_NE(base, flow_base_key(nl, spec, seeded));

  EXPECT_NE(stage_key(base, "place"), stage_key(base, "route"));
  EXPECT_NE(stage_key(stage_key(base, "place"), "route"),
            stage_key(base, "route"));

  // Worker counts are result-neutral and stay out of the option hash.
  auto threaded = opts;
  threaded.placer.num_threads = 8;
  threaded.router.num_threads = 8;
  EXPECT_EQ(hash_compile_options(opts), hash_compile_options(threaded));
}

// --- delta recompile --------------------------------------------------------

TEST(DeltaRecompile, ZeroEditIsAPureReplay) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);
  const Compiled again = service.compile_incremental(base, nl, opts);
  EXPECT_FALSE(again.design.cache.delta);
  EXPECT_TRUE(again.design.cache.delta_fallback.empty());
  EXPECT_EQ(again.design.cache.misses, 0u);
  expect_same_design(base.design, again.design);
}

TEST(DeltaRecompile, RetableEditMatchesFullRecompileBitForBit) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  const Compiled inc = service.compile_incremental(base, edited, opts);
  EXPECT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  EXPECT_EQ(inc.design.cache.nets_invalidated, 0u);
  EXPECT_GT(inc.design.cache.anneal_moves_saved, 0u);

  // A truth-table edit leaves the placement problem and every physical
  // net unchanged, so the delta design must equal a from-scratch compile
  // of the edited netlist bit for bit.
  const core::CompiledDesign full = core::compile(edited, spec, opts);
  expect_same_design(full, inc.design);
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, OptionChangeFallsBackToFullCompile) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  auto reseeded = opts;
  reseeded.seed = 99;
  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  const Compiled inc = service.compile_incremental(base, edited, reseeded);
  EXPECT_FALSE(inc.design.cache.delta);
  EXPECT_EQ(inc.design.cache.delta_fallback, "compile options changed");
  EXPECT_TRUE(inc.design.routing.success);
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, RandomEditSequencesStayCorrectWithFullQoR) {
  const auto spec = small_spec();
  CompileService service;
  core::CompileOptions opts;
  netlist::MultiContextNetlist current = four_context_workload();
  Compiled compiled = service.compile(current, spec, opts);

  Rng rng(9);
  std::size_t deltas_taken = 0;
  for (std::size_t step = 0; step < 6; ++step) {
    const std::size_t node = pick_lut_node(current) +
                             rng.next_below(3);
    const auto edited =
        step % 2 == 0 ? workload::retable_edit(current, node, step + 11)
                      : workload::rewire_edit(current, node, step + 11);
    const Compiled next = service.compile_incremental(compiled, edited, opts);
    ASSERT_TRUE(next.design.routing.success) << "step " << step;
    expect_functionally_correct(next.design, edited);
    if (next.design.cache.delta) {
      ++deltas_taken;
      // QoR guard: the delta design must match a full recompile of the
      // same netlist to within a small factor on both timing and wire.
      const core::CompiledDesign full = core::compile(edited, spec, opts);
      EXPECT_LE(worst_critical_path(next.design),
                worst_critical_path(full) * 1.5 + 1.0)
          << "step " << step;
      EXPECT_LE(total_wirelength(next.design),
                static_cast<std::size_t>(
                    static_cast<double>(total_wirelength(full)) * 1.5) + 8)
          << "step " << step;
    }
    compiled = std::move(next);
    current = edited;
  }
  // The sequence must exercise the delta path, not just fall back.
  EXPECT_GT(deltas_taken, 0u);
}

TEST(DeltaRecompile, IncrementalProgramStageReusesRowsBitForBit) {
  // The delta path's incremental ProgramStage copies cached bitstream
  // rows for every switch and cluster the edit left alone, regenerating
  // only the touched resources — and the assembled bitstream must equal a
  // full recompile's bit for bit.
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  CompileService service;
  const core::CompileOptions opts;
  const Compiled base = service.compile(nl, spec, opts);

  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  const Compiled inc = service.compile_incremental(base, edited, opts);
  ASSERT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  EXPECT_TRUE(inc.design.cache.delta_fallback.empty());  // no full reprogram
  const core::CacheStats& cache = inc.design.cache;
  EXPECT_GT(cache.program_rows_reused, 0u);
  EXPECT_GT(cache.program_rows_reprogrammed, 0u);
  // Every row is accounted exactly once.
  EXPECT_EQ(cache.program_rows_reused + cache.program_rows_reprogrammed,
            inc.design.full_bitstream.num_rows());
  // A retable edit keeps the routing (all switch rows reuse) and touches
  // a handful of clusters, so reuse dominates.
  EXPECT_LT(cache.program_rows_reprogrammed, cache.program_rows_reused);

  const core::CompiledDesign full = core::compile(edited, spec, opts);
  EXPECT_EQ(config::to_text(full.full_bitstream),
            config::to_text(inc.design.full_bitstream));
  expect_functionally_correct(inc.design, edited);
}

TEST(DeltaRecompile, DeterministicForAnyWorkerCount) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  const auto edited = workload::rewire_edit(nl, pick_lut_node(nl), 21);

  std::vector<core::CompiledDesign> designs;
  for (const std::size_t workers : {1u, 4u}) {
    core::CompileOptions opts;
    opts.placer.num_threads = workers;
    opts.router.num_threads = workers;
    CompileService service;
    const Compiled base = service.compile(nl, spec, opts);
    designs.push_back(
        service.compile_incremental(base, edited, opts).design);
  }
  expect_same_design(designs[0], designs[1]);
}

// --- cancellation and concurrency ------------------------------------------

/// Abandons the compile at the first start of stage `cancel_at`.
class CancelAt final : public core::StageObserver {
 public:
  explicit CancelAt(std::string cancel_at) : cancel_at_(std::move(cancel_at)) {}
  bool on_stage_start(const char* stage) override {
    started.emplace_back(stage);
    return cancel_at_ != stage;
  }
  void on_stage_done(const char* /*stage*/, double /*seconds*/) override {}

  std::vector<std::string> started;

 private:
  std::string cancel_at_;
};

// A cancelled compile is "the caller asked us to stop", never "the design
// is infeasible".
static_assert(!std::is_base_of_v<FlowError, FlowCancelled>);

TEST(StageObserver, CancelThrowsFlowCancelledOnBothPathsAndServiceRecovers) {
  const auto nl = four_context_workload();
  const auto spec = small_spec();
  const core::CompileOptions opts;
  CompileService service;

  // Full pipeline (run_pipeline): abandoned before route, after the front
  // end and place already published their artifacts.
  CancelAt cancel_full("route");
  EXPECT_THROW(service.compile(nl, spec, opts, &cancel_full), FlowCancelled);
  ASSERT_FALSE(cancel_full.started.empty());
  EXPECT_EQ(cancel_full.started.back(), "route");

  // The follow-up compile reuses what was published and is bit-identical
  // to an uncached compile.
  const Compiled base = service.compile(nl, spec, opts);
  EXPECT_EQ(base.design.cache.hits, 5u);  // tech_map .. place
  expect_same_design(core::compile(nl, spec, opts), base.design);

  // Delta path (compile_incremental's own stage blocks): a retable edit
  // keeps the placement and routing, so the delta path engages and is
  // abandoned at its manual route block.
  const auto edited = workload::retable_edit(nl, pick_lut_node(nl), 5);
  CancelAt cancel_delta("route");
  EXPECT_THROW(service.compile_incremental(base, edited, opts, &cancel_delta),
               FlowCancelled);
  ASSERT_FALSE(cancel_delta.started.empty());
  EXPECT_EQ(cancel_delta.started.back(), "route");

  const core::CompiledDesign uncached = core::compile(edited, spec, opts);
  const Compiled inc = service.compile_incremental(base, edited, opts);
  EXPECT_TRUE(inc.design.cache.delta) << inc.design.cache.delta_fallback;
  expect_same_design(uncached, inc.design);
  expect_same_design(uncached, service.compile(edited, spec, opts).design);
}

TEST(CompileService, ConcurrentCompilesAreBitIdenticalToSerial) {
  // Four threads share one service and compile distinct designs, each of
  // them several times, in staggered orders: cold misses race with hits
  // on the same keys.  Every result must equal a serial uncached compile.
  const auto spec = small_spec();
  const netlist::MultiContextNetlist netlists[] = {four_context_workload(8),
                                                   four_context_workload(10)};
  struct Job {
    const netlist::MultiContextNetlist* netlist;
    core::CompileOptions options;
  };
  std::vector<Job> jobs;
  for (const auto& nl : netlists) {
    jobs.push_back({&nl, {}});
    core::CompileOptions reseeded;
    reseeded.seed = 7;
    jobs.push_back({&nl, reseeded});
  }
  core::CompileOptions timing;
  timing.placer.timing_mode = true;
  timing.router.timing_mode = true;
  jobs.push_back({&netlists[0], timing});

  std::vector<core::CompiledDesign> serial;
  for (const Job& job : jobs) {
    serial.push_back(core::compile(*job.netlist, spec, job.options));
  }

  constexpr std::size_t kThreads = 4;
  CompileService service;
  std::vector<std::vector<core::CompiledDesign>> results(kThreads);
  std::vector<std::exception_ptr> errors(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (std::size_t k = 0; k < jobs.size(); ++k) {
          const Job& job = jobs[(t + k) % jobs.size()];
          results[t].push_back(
              service.compile(*job.netlist, spec, job.options).design);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(errors[t]) << "thread " << t << " threw";
    ASSERT_EQ(results[t].size(), jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      SCOPED_TRACE("thread " + std::to_string(t) + " job " +
                   std::to_string((t + k) % jobs.size()));
      expect_same_design(serial[(t + k) % jobs.size()], results[t][k]);
    }
  }
}

}  // namespace
}  // namespace mcfpga::cache
