// Tests for the router's maze-expansion engine (route/bucket_queue.hpp,
// Dial's algorithm with a cost-model-derived quantum): the calendar
// queue's quantization mechanics (zero-cost seeds, FIFO ties, the
// overflow bucket and its FIFO-preserving rebase, the monotone clamp),
// the derived quantum, routing determinism fuzzed across worker counts
// and pooled vs pool-free engines, QoR pinned with timing off and on, and
// the PathFinder rule that rip-up iterations after the first re-route only
// congested nets (legal trees, a strict subset re-routed, a verified and
// worker-count-deterministic timed compile).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "arch/routing_graph.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/serialize.hpp"
#include "core/flow.hpp"
#include "core/mcfpga.hpp"
#include "core/stages.hpp"
#include "route/bucket_queue.hpp"
#include "route/router.hpp"
#include "route/router_core.hpp"
#include "workload/circuits.hpp"
#include "workload/random_dfg.hpp"

namespace mcfpga::route {
namespace {

// --- BucketQueue quantization mechanics ----------------------------------

std::vector<arch::NodeId> drain(BucketQueue& q) {
  std::vector<arch::NodeId> order;
  while (!q.empty()) {
    order.push_back(q.pop().value);
  }
  return order;
}

TEST(BucketQueue, ConfigureValidates) {
  BucketQueue q;
  EXPECT_THROW(q.configure(0.0, 8), InvalidArgument);
  EXPECT_THROW(q.configure(-0.5, 8), InvalidArgument);
  EXPECT_THROW(q.configure(0.5, 1), InvalidArgument);
  EXPECT_NO_THROW(q.configure(0.5, 2));
}

TEST(BucketQueue, PopFromEmptyThrows) {
  BucketQueue q;
  q.configure(0.5, 8);
  EXPECT_THROW(q.pop(), InvalidArgument);
  q.push(1.0, 7);
  q.pop();
  EXPECT_THROW(q.pop(), InvalidArgument);
}

TEST(BucketQueue, ZeroCostSeedsPopFirstInPushOrder) {
  // Zero-cost seeds (the source and every already-committed tree node)
  // all quantize to bucket 0 and must come back FIFO.
  BucketQueue q;
  q.configure(0.5, 16);
  q.push(0.0, 10);
  q.push(0.0, 11);
  q.push(0.3, 12);  // same bucket as the zero-cost seeds
  q.push(1.0, 13);
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{10, 11, 12, 13}));
}

TEST(BucketQueue, FifoWithinABucketAndCostOrderAcross) {
  BucketQueue q;
  q.configure(1.0, 16);
  // Three exact ties and two same-bucket near-ties, interleaved with a
  // cheaper and a costlier bucket.
  q.push(5.0, 1);
  q.push(2.0, 2);
  q.push(5.0, 3);
  q.push(5.5, 4);
  q.push(9.0, 5);
  q.push(5.0, 6);
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{2, 1, 3, 4, 6, 5}));
}

TEST(BucketQueue, OverflowRebasePreservesCostOrderAndFifo) {
  // Span 4 from base 0: quantized costs >= 4 overflow.  After the
  // calendar drains the queue rebases onto the smallest overflow cost
  // and the 9.x ties must still pop in insertion order.
  BucketQueue q;
  q.configure(1.0, 4);
  q.push(1.5, 1);
  q.push(9.0, 2);
  q.push(2.5, 3);
  q.push(9.2, 4);
  q.push(9.1, 5);
  q.push(6.0, 6);
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{1, 3, 6, 2, 4, 5}));
}

TEST(BucketQueue, MonotoneClampNeverDropsLateCheapPushes) {
  BucketQueue q;
  q.configure(1.0, 8);
  q.push(3.7, 1);
  EXPECT_EQ(q.pop().value, 1u);  // cursor now at bucket 3
  // A push behind the cursor is filed into the current bucket instead of
  // a consumed one — still popped, never lost.
  q.push(1.2, 2);
  EXPECT_EQ(q.pop().value, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, ClearAllowsReuse) {
  BucketQueue q;
  q.configure(0.5, 8);
  q.push(1.0, 1);
  q.push(2.0, 2);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(0.5, 3);
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{3}));
}

TEST(BucketQueue, CostsPastTheIndexCeilingClampAndPopLast) {
  // Bucket indices clamp at 2^53 quanta instead of overflowing the
  // integer cast (undefined behaviour the ASan+UBSan lane reports):
  // 1e300 pops after every cheaper cost, and infinity after it in push
  // order, since both share the top bucket.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  BucketQueue q;
  q.configure(0.5, 8);
  q.push(1.0, 1);
  q.push(1e300, 2);
  q.push(3.0, 3);
  q.push(1e15, 4);  // 2e15 quanta: below the ceiling, still exact
  q.push(kInf, 5);
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{1, 3, 4, 2, 5}));
}

// --- Router-level properties ---------------------------------------------

arch::FabricSpec small_spec() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 8;
  spec.double_length_tracks = 4;
  return spec;
}

/// Deterministic congested multi-context route problem straight on the
/// routing graph (endpoints sampled without replacement — PathFinder's
/// exclusivity rules make duplicate endpoints unroutable).
std::vector<std::vector<RouteNet>> random_route_problem(
    const arch::RoutingGraph& g, std::size_t nets_per_context,
    std::uint64_t seed) {
  const arch::FabricSpec& spec = g.spec();
  std::uint64_t state = seed;
  const auto next = [&]() {  // splitmix64
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<std::vector<RouteNet>> nets(4);
  for (std::size_t c = 0; c < nets.size(); ++c) {
    std::vector<arch::NodeId> sources;
    std::vector<arch::NodeId> sinks;
    for (std::size_t y = 0; y < spec.height; ++y) {
      for (std::size_t x = 0; x < spec.width; ++x) {
        for (std::size_t p = 0; p < spec.logic_block.num_outputs; ++p) {
          sources.push_back(g.out_pin(x, y, p));
        }
        for (std::size_t p = 0; p < spec.logic_block.base_inputs; ++p) {
          sinks.push_back(g.in_pin(x, y, p));
        }
      }
    }
    for (std::size_t i = sources.size(); i > 1; --i) {
      std::swap(sources[i - 1], sources[next() % i]);
    }
    for (std::size_t i = sinks.size(); i > 1; --i) {
      std::swap(sinks[i - 1], sinks[next() % i]);
    }
    std::size_t sink_at = 0;
    for (std::size_t i = 0; i < nets_per_context; ++i) {
      RouteNet net;
      net.name = "n" + std::to_string(c) + "_" + std::to_string(i);
      net.source = sources[i];
      const std::size_t fanout = 1 + next() % 2;
      for (std::size_t s = 0; s < fanout && sink_at < sinks.size(); ++s) {
        net.sinks.push_back(sinks[sink_at++]);
      }
      nets[c].push_back(std::move(net));
    }
  }
  return nets;
}

void expect_same_routing(const RouteResult& a, const RouteResult& b) {
  ASSERT_EQ(a.success, b.success);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t c = 0; c < a.nets.size(); ++c) {
    ASSERT_EQ(a.nets[c].size(), b.nets[c].size()) << "context " << c;
    for (std::size_t i = 0; i < a.nets[c].size(); ++i) {
      ASSERT_EQ(a.nets[c][i].paths.size(), b.nets[c][i].paths.size());
      for (std::size_t p = 0; p < a.nets[c][i].paths.size(); ++p) {
        EXPECT_EQ(a.nets[c][i].paths[p].edges, b.nets[c][i].paths[p].edges)
            << "context " << c << " net " << i << " path " << p;
      }
    }
  }
}

std::size_t worst_critical_switches(const RouteResult& r) {
  std::size_t worst = 0;
  for (std::size_t c = 0; c < r.nets.size(); ++c) {
    worst = std::max(worst, r.critical_switches(c));
  }
  return worst;
}

std::size_t total_wirelength(const RouteResult& r) {
  std::size_t total = 0;
  for (const auto& s : r.context_summary) {
    total += s.wire_nodes_used;
  }
  return total;
}

constexpr std::uint64_t kFuzzSeeds[] = {11, 42, 97, 1234, 5150, 90210};

TEST(BucketEngine, HugeHistoryIncrementRoutesDeterministically) {
  // history_increment = 1e300 prices every overused node past 2^53 quanta
  // after the first rip-up iteration.  The queue's index clamp keeps the
  // expansion defined and deterministic across worker counts.
  const arch::RoutingGraph g(small_spec());
  const auto nets = random_route_problem(g, 18, 42);
  RouterOptions opts;
  opts.history_increment = 1e300;
  opts.num_threads = 1;
  const RouteResult serial = Router(g, opts).route(nets);
  ASSERT_GE(serial.iterations, 2u) << "workload no longer congests";
  opts.num_threads = 4;
  expect_same_routing(serial, Router(g, opts).route(nets));
}

TEST(BucketEngine, DeterministicAcrossWorkerCounts) {
  const arch::RoutingGraph g(small_spec());
  for (const std::uint64_t seed : kFuzzSeeds) {
    const auto nets = random_route_problem(g, 18, seed);
    RouterOptions opts;
    opts.num_threads = 1;
    const RouteResult reference = Router(g, opts).route(nets);
    ASSERT_TRUE(reference.success) << "seed " << seed;
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4},
                                      std::size_t{0}}) {
      opts.num_threads = workers;
      const RouteResult got = Router(g, opts).route(nets);
      SCOPED_TRACE("seed " + std::to_string(seed) + " workers " +
                   std::to_string(workers));
      expect_same_routing(reference, got);
      // Counters describe the same expansion, so they must agree too.
      for (std::size_t c = 0; c < got.context_summary.size(); ++c) {
        EXPECT_EQ(got.context_summary[c].heap_pushes,
                  reference.context_summary[c].heap_pushes);
        EXPECT_EQ(got.context_summary[c].nodes_expanded,
                  reference.context_summary[c].nodes_expanded);
      }
    }
  }
}

// --- Derived quantum --------------------------------------------------------

TEST(ExpansionQuantum, DefaultCostsGiveHalfTimingOnOrOff) {
  const arch::RoutingGraph g(small_spec());
  const RouterCore core(g, RouterOptions{});
  EXPECT_EQ(core.min_base_cost(), 0.5);  // pins and pads
  EXPECT_EQ(expansion_quantum(core.min_base_cost(), nullptr), 0.5);
  timing::ContextTimingSpec spec;  // default se_delay 1.0
  EXPECT_EQ(expansion_quantum(core.min_base_cost(), &spec), 0.5);
}

TEST(ExpansionQuantum, SubHalfSeDelayBoundsTheQuantum) {
  const arch::RoutingGraph g(small_spec());
  const RouterCore core(g, RouterOptions{});
  timing::ContextTimingSpec spec;
  spec.se_delay = 0.25;
  EXPECT_EQ(expansion_quantum(core.min_base_cost(), &spec), 0.25);
}

TEST(ExpansionQuantum, SmallestBaseCostWithoutDoubleLengthPreference) {
  const arch::RoutingGraph g(small_spec());
  RouterOptions opts;
  opts.prefer_double_length = false;  // double-length wires priced at 3.5
  const RouterCore core(g, opts);
  EXPECT_EQ(core.min_base_cost(), 0.5);
  EXPECT_EQ(expansion_quantum(core.min_base_cost(), nullptr),
            core.min_base_cost());
  timing::ContextTimingSpec spec;
  spec.se_delay = 2.0;  // above every base cost: the base cost binds
  EXPECT_EQ(expansion_quantum(core.min_base_cost(), &spec),
            core.min_base_cost());
  // The bound is min(base, se_delay) whichever side is smaller.
  EXPECT_EQ(expansion_quantum(3.5, nullptr), 3.5);
  EXPECT_EQ(expansion_quantum(3.5, &spec), 2.0);
}

TEST(ExpansionQuantum, RejectsNonPositiveSeDelay) {
  timing::ContextTimingSpec spec;
  for (const double se : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    spec.se_delay = se;
    EXPECT_THROW(expansion_quantum(0.5, &spec), InvalidArgument)
        << "se_delay " << se;
  }
}

// --- Pinned QoR and determinism ---------------------------------------------

TEST(BucketEngine, PinnedQoRUntimed) {
  // Worst critical switches and total wirelength per fuzz seed.
  // Deterministic, so any drift is an algorithmic change: a regression
  // fails here, an improvement must be re-pinned.
  struct Pin {
    std::uint64_t seed;
    std::size_t worst_switches;
    std::size_t wirelength;
  };
  constexpr Pin kPins[] = {
      {11, 4, 247},   {42, 5, 297},   {97, 5, 281},
      {1234, 4, 283}, {5150, 4, 283}, {90210, 5, 299},
  };
  const arch::RoutingGraph g(small_spec());
  for (const Pin& pin : kPins) {
    const auto nets = random_route_problem(g, 18, pin.seed);
    const RouteResult r = Router(g, {}).route(nets);
    ASSERT_TRUE(r.success) << "seed " << pin.seed;
    EXPECT_EQ(worst_critical_switches(r), pin.worst_switches)
        << "seed " << pin.seed;
    EXPECT_EQ(total_wirelength(r), pin.wirelength) << "seed " << pin.seed;
  }
}

// --- PathFinder rip-up: congested nets only after iteration 0 -------------

/// Random 4-context netlist whose contexts need several PathFinder
/// iterations on small_spec() (3 untimed, 6 timed).
netlist::MultiContextNetlist congested_workload() {
  workload::RandomMultiContextParams params;
  params.base.seed = 1;
  params.base.num_nodes = 24;
  return workload::random_multi_context(params);
}

TEST(PathFinder, FuzzedRoutesAreLegalTrees) {
  // Nets kept across rip-up iterations must still end disjoint and
  // connected.  In every context of every fuzz problem no node is held by
  // two nets, and each path's edges chain from a node already on the net's
  // tree (the source or an earlier path) to the path's sink.
  constexpr std::size_t kFree = std::numeric_limits<std::size_t>::max();
  const arch::RoutingGraph g(small_spec());
  for (const std::uint64_t seed : kFuzzSeeds) {
    const auto nets = random_route_problem(g, 18, seed);
    const RouteResult r = Router(g, {}).route(nets);
    ASSERT_TRUE(r.success) << "seed " << seed;
    for (std::size_t c = 0; c < r.nets.size(); ++c) {
      std::vector<std::size_t> owner(g.num_nodes(), kFree);
      ASSERT_EQ(r.nets[c].size(), nets[c].size());
      for (std::size_t i = 0; i < r.nets[c].size(); ++i) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " context " +
                     std::to_string(c) + " net " + std::to_string(i));
        const RoutedNet& net = r.nets[c][i];
        ASSERT_EQ(net.source, nets[c][i].source);
        ASSERT_EQ(net.paths.size(), nets[c][i].sinks.size());
        std::vector<arch::NodeId> tree{net.source};
        for (std::size_t p = 0; p < net.paths.size(); ++p) {
          const RoutedPath& path = net.paths[p];
          EXPECT_EQ(path.sink, nets[c][i].sinks[p]);
          ASSERT_FALSE(path.edges.empty());
          arch::NodeId at = g.edge(path.edges.front()).from;
          EXPECT_NE(std::find(tree.begin(), tree.end(), at), tree.end())
              << "path " << p << " starts off the net's tree";
          for (const arch::EdgeId e : path.edges) {
            EXPECT_EQ(g.edge(e).from, at) << "path " << p << " breaks";
            at = g.edge(e).to;
            tree.push_back(at);
          }
          EXPECT_EQ(at, path.sink);
        }
        for (const arch::NodeId n : tree) {
          std::size_t& held_by = owner[static_cast<std::size_t>(n)];
          EXPECT_TRUE(held_by == kFree || held_by == i)
              << g.node(n).name << " is on nets " << held_by << " and " << i;
          held_by = i;
        }
      }
    }
  }
}

TEST(PathFinder, LaterIterationsRerouteOnlyCongestedNets) {
  // Iteration 0 routes every net from the same empty state whatever the
  // cap, so a pass capped at one iteration costs exactly one full round.
  // Re-routing every net in each later round costs over 0.9 of that round
  // on this workload; re-routing only the congested nets must keep the
  // later rounds under half a round each on average.
  const auto nl = congested_workload();
  const core::CompileOptions opts;
  core::FlowContext ctx = core::make_flow_context(nl, small_spec(), opts);
  core::run_pipeline(ctx, core::default_pipeline());
  RouterOptions one_round = opts.router;
  one_round.max_iterations = 1;
  std::size_t negotiated = 0;
  for (std::size_t c = 0; c < ctx.nets_per_context.size(); ++c) {
    const auto& nets = ctx.nets_per_context[c];
    RouterCore full_core(*ctx.graph, opts.router);
    RouterCore first_core(*ctx.graph, one_round);
    const auto full =
        full_core.route_pass(nets, nullptr, nullptr, nullptr);
    const auto first =
        first_core.route_pass(nets, nullptr, nullptr, nullptr);
    ASSERT_TRUE(full.converged) << "context " << c;
    if (full.iterations < 2) {
      continue;
    }
    ++negotiated;
    const std::size_t later_rounds =
        full.nodes_expanded - first.nodes_expanded;
    EXPECT_LT(2 * later_rounds, (full.iterations - 1) * first.nodes_expanded)
        << "context " << c << ": " << full.iterations << " iterations, "
        << full.nodes_expanded << " vs " << first.nodes_expanded
        << " expansions";
  }
  EXPECT_GT(negotiated, 0u) << "workload no longer needs negotiation";
}

TEST(PathFinder, CongestedTimedCompileVerifiesAndIsDeterministic) {
  // Kept nets carry their switch counts into the re-timing between
  // iterations; the programmed fabric must still compute the netlist,
  // identically for every router worker count.
  const auto nl = congested_workload();
  core::CompileOptions opts;
  opts.placer.timing_mode = true;
  opts.router.timing_mode = true;
  opts.router.num_threads = 1;
  const core::MCFPGA serial(nl, small_spec(), opts);
  ASSERT_GE(serial.design().routing.iterations, 2u);
  EXPECT_EQ(serial.verify(16, 3), 0u);
  opts.router.num_threads = 4;
  const core::MCFPGA parallel(nl, small_spec(), opts);
  expect_same_routing(serial.design().routing, parallel.design().routing);
  EXPECT_EQ(config::to_text(serial.design().full_bitstream),
            config::to_text(parallel.design().full_bitstream));
}

TEST(BucketEngine, PinnedQoRTimedFlow) {
  // Same pinning through the timing-driven compile flow: worst context
  // critical path and total wirelength.
  struct Pin {
    std::size_t stages;
    double worst_path;
    std::size_t wirelength;
  };
  constexpr Pin kPins[] = {{6, 27.0, 191}, {8, 35.0, 260}};
  for (const Pin& pin : kPins) {
    const auto nl = workload::pipeline_workload(4, pin.stages);
    core::CompileOptions opts;
    opts.placer.timing_mode = true;
    opts.router.timing_mode = true;
    const auto d = core::compile(nl, small_spec(), opts);
    double worst = 0.0;
    std::size_t wirelength = 0;
    for (const auto& st : d.context_stats) {
      worst = std::max(worst, st.critical_path);
      wirelength += st.wire_nodes_used;
    }
    EXPECT_EQ(worst, pin.worst_path) << "pipeline(4," << pin.stages << ")";
    EXPECT_EQ(wirelength, pin.wirelength)
        << "pipeline(4," << pin.stages << ")";
  }
}

TEST(BucketEngine, PooledMatchesPoolFree) {
  // Routing through an external CorePool — cold, then warm (second route
  // over the same cores) — changes nothing.
  const arch::RoutingGraph g(small_spec());
  const auto nets = random_route_problem(g, 18, 7);
  const Router router(g, {});
  const RouteResult pool_free = router.route(nets);
  CorePool pool;
  expect_same_routing(pool_free,
                      router.route(nets, nullptr, nullptr, &pool));
  expect_same_routing(pool_free,
                      router.route(nets, nullptr, nullptr, &pool));
}

TEST(BucketEngine, SubHalfSeDelayTimedCompileVerifiesAndIsDeterministic) {
  // se_delay 0.25 drops the derived quantum below the default 0.5 (a fixed
  // 0.5 width would reorder near-equal costs).  The compile must program a
  // fabric that computes the netlist, identically for every router worker
  // count and for pooled vs pool-free engines.
  const auto nl = workload::pipeline_workload(4, 6);
  core::CompileOptions opts;
  opts.placer.timing_mode = true;
  opts.router.timing_mode = true;
  opts.delay.se_delay = 0.25;
  opts.router.num_threads = 1;
  const core::MCFPGA serial(nl, small_spec(), opts);
  EXPECT_EQ(serial.verify(16, 3), 0u);
  opts.router.num_threads = 4;
  const core::MCFPGA parallel(nl, small_spec(), opts);
  expect_same_routing(serial.design().routing, parallel.design().routing);
  EXPECT_EQ(config::to_text(serial.design().full_bitstream),
            config::to_text(parallel.design().full_bitstream));

  // The flow routes through a pooled engine; re-route the same nets and
  // specs pool-free.
  core::FlowContext ctx = core::make_flow_context(nl, small_spec(), opts);
  core::run_pipeline(ctx, core::default_pipeline());
  ASSERT_NE(ctx.router_pool, nullptr);
  const RouteResult pool_free =
      Router(*ctx.graph, opts.router).route(ctx.nets_per_context,
                                            &ctx.timing_specs);
  expect_same_routing(ctx.routing, pool_free);
  expect_same_routing(serial.design().routing, pool_free);
}

// --- CalendarQueue fuzz: span boundaries, rebase cycles, FIFO --------------

/// Reference model of the queue's contract, used as the fuzz oracle:
/// priority = quantized cost clamped to the monotone floor (the priority
/// of the most recent pop), minimum priority pops first, FIFO within a
/// priority.  O(n) pops — fine at test sizes.
class ReferenceCalendar {
 public:
  explicit ReferenceCalendar(double quantum) : inv_quantum_(1.0 / quantum) {}

  void push(double cost, arch::NodeId value) {
    // Same expression as CalendarQueue::quantize, so the model cannot
    // disagree with the queue over floating-point rounding.
    std::uint64_t q = 0;
    if (cost > 0.0) {
      q = static_cast<std::uint64_t>(
          std::min(cost * inv_quantum_, 9007199254740992.0));
    }
    q = std::max(q, floor_);
    items_.push_back(Entry{q, seq_++, value});
  }

  bool empty() const { return items_.empty(); }

  arch::NodeId pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (items_[i].prio < items_[best].prio ||
          (items_[i].prio == items_[best].prio &&
           items_[i].seq < items_[best].seq)) {
        best = i;
      }
    }
    floor_ = items_[best].prio;
    const arch::NodeId value = items_[best].value;
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(best));
    return value;
  }

 private:
  struct Entry {
    std::uint64_t prio;
    std::uint64_t seq;
    arch::NodeId value;
  };
  double inv_quantum_;
  std::uint64_t floor_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<Entry> items_;
};

TEST(BucketQueue, ItemsExactlyAtBucketSpanOverflow) {
  // quantum 0.5, span 4: quantized cost 3 is the last calendar bucket,
  // quantized cost 4 (== span, cost 2.0 exactly) must take the overflow
  // list and come back via rebase — in push order and after everything
  // the calendar held.
  BucketQueue q;
  q.configure(0.5, 4);
  q.push(2.0, 1);    // q=4: exactly at span -> overflow
  q.push(1.999, 2);  // q=3: last calendar bucket
  q.push(0.0, 3);    // q=0
  q.push(2.0, 4);    // q=4: overflow, after 1
  q.push(3.7, 5);    // q=7: overflow
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{3, 2, 1, 4, 5}));
}

TEST(BucketQueue, ZeroCostSeedsAfterRebaseClampToTheFloor) {
  // After a rebase onto a far-away overflow cost, zero-cost pushes (the
  // committed-tree seeds of the next expansion) must clamp to the new
  // floor instead of filing behind the pop cursor — and stay FIFO both
  // among themselves and against later same-bucket pushes.
  BucketQueue q;
  q.configure(0.5, 4);
  q.push(10.0, 1);  // q=20: overflow
  q.push(0.1, 2);   // q=0
  EXPECT_EQ(q.pop().value, 2);
  EXPECT_EQ(q.pop().value, 1);  // calendar drained -> rebase to base 20
  q.push(0.0, 3);               // clamps to the floor (q=20)
  q.push(0.0, 4);
  q.push(0.2, 5);  // also clamps
  q.push(10.3, 6);  // q=20 naturally: same bucket, FIFO after the clamps
  EXPECT_EQ(drain(q), (std::vector<arch::NodeId>{3, 4, 5, 6}));
}

TEST(BucketQueue, RepeatedDrainRebaseCyclesStayFifo) {
  // Maze expansion waves: each round's costs live far beyond the span,
  // forcing one rebase per round; order within and across rounds must
  // stay (quantized cost, push order).
  BucketQueue q;
  q.configure(0.5, 4);
  arch::NodeId id = 0;
  for (int round = 0; round < 5; ++round) {
    const double base_cost = 10.0 * (round + 1);
    std::vector<arch::NodeId> want;
    q.push(base_cost + 0.6, id);  // second bucket of the round
    const arch::NodeId late = id++;
    for (int i = 0; i < 3; ++i) {
      q.push(base_cost, id);  // three FIFO ties in the round's first bucket
      want.push_back(id++);
    }
    want.push_back(late);
    std::vector<arch::NodeId> got;
    for (std::size_t i = 0; i < want.size(); ++i) {
      got.push_back(q.pop().value);
    }
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_TRUE(q.empty());
  }
}

TEST(BucketQueue, FuzzMatchesReferenceModel) {
  // Random interleavings of pushes (costs spanning several calendar
  // windows, so overflow and rebase fire constantly) and pops, checked
  // item-by-item against the reference model.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    BucketQueue q;
    q.configure(0.5, 8);  // tiny span: quantized costs reach 4x past it
    ReferenceCalendar ref(0.5);
    arch::NodeId next_value = 0;
    for (int op = 0; op < 2000; ++op) {
      if (q.empty() || rng.next_double() < 0.6) {
        // Mix boundary-exact costs (multiples of the quantum, including
        // exactly span * quantum) with arbitrary ones and zero seeds.
        double cost = 0.0;
        switch (rng.next_below(3)) {
          case 0:
            cost = 0.5 * static_cast<double>(rng.next_below(33));
            break;
          case 1:
            cost = 16.0 * rng.next_double();
            break;
          default:
            cost = 0.0;
            break;
        }
        q.push(cost, next_value);
        ref.push(cost, next_value);
        ++next_value;
      } else {
        ASSERT_FALSE(ref.empty());
        EXPECT_EQ(q.pop().value, ref.pop()) << "seed " << seed;
      }
    }
    while (!q.empty()) {
      ASSERT_FALSE(ref.empty());
      EXPECT_EQ(q.pop().value, ref.pop()) << "seed " << seed;
    }
    EXPECT_TRUE(ref.empty());
  }
}

}  // namespace
}  // namespace mcfpga::route
