// Reusable per-context PathFinder engine.
//
// A RouterCore owns all scratch state one context's negotiation needs —
// cost/history/occupancy arrays, the expansion queue, epoch-stamped
// distance/visited marks — preallocated once per routing-graph size and
// reset cheaply between contexts.  Contexts are independent (a physical
// wire carries a different signal in every context), so Router::route can
// run one RouterCore per worker thread and merge the per-context results
// in context order; the merged RouteResult is bit-identical to routing the
// contexts serially.
//
// Hot-path layout: the maze expansion walks the graph's flat CSR arrays
// (RoutingGraph::csr_*) and keeps all per-node expansion state — distance,
// back-pointer, epoch stamps, route-tree depth — in one packed 24-byte
// NodeState record, so one relaxation touches one cache line of node state
// instead of five scattered vectors.  The records (and every other
// graph-sized scratch array) are carved from a common::ScratchArena that a
// worker can keep alive across contexts, passes and closure iterations —
// rebuilding a core on a pooled arena reuses the same cache-warm block
// instead of re-mallocing (see CorePool).  The congestion
// cost is hoisted out of the relaxation loop into a per-node cache that is
// rebuilt once per rip-up iteration and patched on the O(tree) occupancy
// updates, so the inner loop loads exactly one double per neighbor; CSR
// rows are software-prefetched one hop ahead.
//
// Queue: every maze expansion runs Dial's algorithm on one monotone
// calendar queue (route/bucket_queue.hpp) — O(1) push/pop, FIFO within a
// bucket, so the pop sequence is a pure function of the push sequence and
// routing is deterministic for any worker count.  The bucket width is not
// a knob: expansion_quantum derives it per pass from the cost model as the
// smallest relaxation increment the pass can produce, which keeps every
// expansion exact Dijkstra (see expansion_quantum for the bound).  The
// queue's traffic (pushes, pops, stale pops, nodes expanded) lands in
// ContextResult under the historical heap_* counter names.
//
// The engine's entry point is route_pass: one call is one full PathFinder
// negotiation of one context.  A pass can seed a per-node additive
// PRESSURE into the present-congestion cost — the delta recompile path
// (cache/incremental.cpp) pins the kept trees' wires with it.
// route_context is the pressure-free wrapper.
//
// Timing-driven mode (RouterOptions::timing_mode + a ContextTimingSpec):
// each context carries its own TimingGraph, re-timed incrementally from
// the current switch counts between rip-up iterations, and every (net,
// sink) connection expands with cost
//   crit * se_delay + (1 - crit) * congestion_cost
// — the classic timing-driven PathFinder blend.  Criticalities start from
// the unit-switch (logic depth) prior, so even iteration 0 prefers short
// detours for deep paths.  Reused route-tree wire is seeded into the
// expansion at its accumulated upstream delay (crit-weighted), so the
// router can trade a longer detour near the source for a shorter critical
// tail instead of treating every branch point as free.  The levelized
// ConnectionArcs/TimingGraph pair is cached per spec (content-signature
// keyed), so closure iterations that re-route the same context re-time
// incrementally instead of re-levelizing the DAG.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/routing_graph.hpp"
#include "common/arena.hpp"
#include "route/bucket_queue.hpp"
#include "route/router.hpp"
#include "timing/net_timing.hpp"
#include "timing/timing_graph.hpp"

namespace mcfpga::route {

class RouterCore {
 public:
  /// Result of routing one context.
  struct ContextResult {
    std::vector<RoutedNet> nets;
    std::size_t iterations = 0;  ///< PathFinder iterations consumed.
    bool converged = false;      ///< False = congestion never resolved.
    /// Aggregates over all sink connections (feeds ContextStats without a
    /// post-hoc re-scan of every net).
    std::size_t wire_nodes_used = 0;
    std::size_t switches_crossed = 0;
    /// Calendar-queue traffic over the whole pass (every iteration,
    /// re-routed net, and sink): queue pushes and pops, pops of entries a
    /// cheaper re-push superseded (the stale check), and nodes whose CSR
    /// row was actually scanned.
    std::size_t heap_pushes = 0;
    std::size_t heap_pops = 0;
    std::size_t stale_pops = 0;
    std::size_t nodes_expanded = 0;
  };

  /// `arena` (may be null = private arena) provides the graph-sized
  /// scratch storage; constructing a core RESETS it, invalidating any
  /// earlier core built on the same arena.
  RouterCore(const arch::RoutingGraph& graph, const RouterOptions& options,
             common::ScratchArena* arena = nullptr);

  const arch::RoutingGraph& graph() const { return graph_; }
  const RouterOptions& options() const { return options_; }
  /// Smallest per-node base cost over the graph (the congestion-free price
  /// of entering the cheapest node) — expansion_quantum's first input.
  double min_base_cost() const { return min_base_cost_; }

  /// One negotiation pass over one context's nets — a full PathFinder
  /// rip-up/re-route loop (every net in iteration 0, then only the nets
  /// whose tree touches an overused node).  Throws FlowError when a net
  /// has no physical path at all; returns converged=false when congestion
  /// cannot be negotiated away within options.max_iterations.  `timing`
  /// (may be null) enables the criticality-driven cost when
  /// options.timing_mode is set; its nets/sinks must parallel `nets`.
  ///
  /// `history` (may be null) carries PathFinder history costs across
  /// passes: when its size matches the graph's node count the negotiation
  /// seeds from it instead of zero, and the final history is written back
  /// either way — the closure loop's cross-iteration carry.
  ///
  /// `pressure` (may be null; graph-node-sized) is an additive present
  /// congestion term per node.  Null is bit-identical to all-zeros.
  ContextResult route_pass(const std::vector<RouteNet>& nets,
                           const timing::ContextTimingSpec* timing,
                           std::vector<double>* history,
                           const std::vector<double>* pressure);

  /// The pressure-free single-shot pass: what routing one independent
  /// context always was.
  ContextResult route_context(const std::vector<RouteNet>& nets,
                              const timing::ContextTimingSpec* timing =
                                  nullptr,
                              std::vector<double>* history = nullptr) {
    return route_pass(nets, timing, history, nullptr);
  }

 private:
  /// Packed per-node expansion record: everything one relaxation reads or
  /// writes about a node, on one cache line (24 bytes).  Epoch stamps make
  /// per-expansion resets O(touched); `depth` is the switch count from the
  /// net's source to this route-tree node (valid under tree_epoch) — the
  /// upstream delay a timing-driven expansion charges for reused wire.
  struct NodeState {
    double dist;
    arch::EdgeId prev;
    std::uint32_t dist_epoch;
    std::uint32_t tree_epoch;
    std::uint32_t depth;
  };

  /// Cached levelized timing engine of one spec.  Keyed by the spec's
  /// address plus a content signature (shape, delays, reader arcs), so a
  /// respawned spec object at the same address with different content can
  /// never alias a stale DAG.
  struct TimingEngine {
    const timing::ContextTimingSpec* spec;
    std::uint64_t signature;
    timing::ConnectionArcs arcs;
    timing::TimingGraph sta;
    TimingEngine(const timing::ContextTimingSpec& s, std::uint64_t sig)
        : spec(&s), signature(sig), arcs(s), sta(s.num_nodes, arcs.arcs()) {}
  };

  /// Sizes the calendar for one pass priced under `timing` (null = timing
  /// off): bucket width from expansion_quantum.
  void arm_queue(const timing::ContextTimingSpec* timing);

  /// Distance of `node` in the current Dijkstra epoch (infinity if
  /// untouched).
  double dist_of(std::size_t node) const;

  /// Recomputes one node's cached congestion cost from its current
  /// occupancy/history/pressure — the exact expression the relaxation
  /// loop used to evaluate inline, so caching is bit-neutral.
  void refresh_node_cost(std::size_t idx);

  /// Seeds the route tree into the calendar and expands until `sink` pops.
  /// Returns false when the sink is unreachable.  Counter traffic lands in
  /// `result`.
  bool expand_to_sink(const std::vector<arch::NodeId>& tree,
                      arch::NodeId sink, double cong_scale, double delay_term,
                      ContextResult& result);

  /// Returns the cached (or freshly built) timing engine for `spec`,
  /// reset to unit-switch delays and re-analyzed — identical state to a
  /// fresh levelization, without rebuilding the DAG on a cache hit.
  TimingEngine& timing_engine(const timing::ContextTimingSpec& spec);

  const arch::RoutingGraph& graph_;
  RouterOptions options_;

  // Arena-backed graph-sized arrays (see the class comment).  The arena
  // outlives the core when pooled; the core resets it at construction.
  std::unique_ptr<common::ScratchArena> arena_owned_;
  common::ScratchArena* arena_;
  std::size_t scratch_nodes_ = 0;  ///< Node count the scratch was sized for.

  // Graph-shaped constants, precomputed once.
  double* base_cost_ = nullptr;  ///< Per-node occupancy cost.
  double min_base_cost_ = 0.0;   ///< Minimum of base_cost_.
  std::uint8_t* is_wire_ = nullptr;

  // Negotiation state, reset per pass.
  int* occupancy_ = nullptr;
  double* history_ = nullptr;
  /// Hoisted congestion cost: node_cost_[i] == base_cost_[i] * (1 +
  /// history + present_factor * occupancy [+ pressure]) at all times
  /// during an expansion.  Rebuilt per rip-up iteration, patched on the
  /// O(tree) occupancy updates.
  double* node_cost_ = nullptr;

  // Dijkstra scratch, epoch-stamped so resets are O(touched).
  NodeState* nodes_ = nullptr;
  std::uint32_t epoch_ = 0;
  std::uint32_t tree_epoch_ = 0;

  // Pass-scoped cost inputs captured for refresh_node_cost.
  double present_factor_ = 0.5;
  const double* pressure_of_ = nullptr;

  BucketQueue bucket_;

  // Timing caches (see TimingEngine) plus the per-pass criticality buffer.
  std::vector<std::unique_ptr<TimingEngine>> timing_cache_;
  std::vector<double> crit_;
};

/// Pool of per-worker engine state: one RouterCore per slot, each on its
/// own ScratchArena, kept alive across routing calls so passes and
/// closure iterations reuse warm scratch and cached timing DAGs
/// instead of re-mallocing and re-levelizing.  prepare() rebuilds a slot's
/// core only when the graph or options changed (the arena is reused even
/// then).  Slots are interchangeable — any core produces bit-identical
/// results for the same pass inputs — so callers may hand them to workers
/// in any order without perturbing determinism.  Not thread-safe: call
/// prepare() before fanning out, then give each worker its own slot.
class CorePool {
 public:
  void prepare(std::size_t count, const arch::RoutingGraph& graph,
               const RouterOptions& options);
  RouterCore& core(std::size_t slot) { return *slots_[slot].core; }

 private:
  struct Slot {
    std::unique_ptr<common::ScratchArena> arena;
    std::unique_ptr<RouterCore> core;
  };
  std::vector<Slot> slots_;
};

/// Calendar span of the maze expansion, in buckets.  At the default 0.5
/// quantum this covers a 512-cost horizon per rebase — far beyond one
/// relaxation wave; costlier pushes take the overflow list.
inline constexpr std::size_t kExpansionSpan = 1024;

/// Bucket width that keeps one maze-expansion pass exact Dijkstra: the
/// smallest relaxation increment the pass's cost model can produce.
/// Every relaxation adds (1 - c) * base * congestion + c * se_delay with
/// congestion >= 1 (history, occupancy and pressure only add) and the
/// criticality c in [0, max_criticality]; that is at least a convex
/// combination of base and se_delay, so it is bounded below by
///   min_base_cost                      with timing off (c = 0), and
///   min(min_base_cost, se_delay)       with timing on.
/// A quantum at or below every increment sends each relaxation into a
/// strictly later bucket — Dial's exactness condition.  `timing` is the
/// pass's spec when timing-driven pricing is active, else null; throws
/// InvalidArgument when its se_delay is not finite and positive.
double expansion_quantum(double min_base_cost,
                         const timing::ContextTimingSpec* timing);

/// Deterministic merge of per-context results into one RouteResult:
/// switch patterns, summaries (including the expansion-engine counters)
/// and net lists assembled in context order, independent of which worker
/// produced what.
RouteResult merge_context_results(
    const arch::RoutingGraph& graph,
    std::vector<RouterCore::ContextResult>&& per_context);

}  // namespace mcfpga::route
