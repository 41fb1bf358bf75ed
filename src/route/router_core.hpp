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
// worker can keep alive across contexts, passes, negotiation rounds, and
// closure iterations — rebuilding a core on a pooled arena reuses the same
// cache-warm block instead of re-mallocing (see CorePool).  The congestion
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
// The engine exposes a resumable per-pass API (route_pass): one call is
// one full PathFinder negotiation of one context, but a pass can seed
// cross-context PRESSURE in (a per-node additive present-cost exported by
// other contexts) and exports its own per-node wire USAGE out — the
// handshake the cross-context scheduler (route/schedule.hpp) drives in
// rounds.  route_context is the pressure-free wrapper and remains
// bit-identical to the historical monolithic entry point.
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
// keyed), so closure iterations and negotiation rounds that re-route the
// same context re-time incrementally instead of re-levelizing the DAG.
#pragma once

#include <atomic>
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
  /// either way — both the closure loop's cross-iteration carry and the
  /// scheduler's cross-round carry.
  ///
  /// `pressure` (may be null; graph-node-sized) is an additive present
  /// congestion term per node — the cross-context pressure other contexts
  /// exported.  Null is bit-identical to all-zeros.
  ///
  /// `usage_out` (may be null) receives one byte per graph node: 1 where
  /// this pass's final routing occupies a WIRE node — the usage this
  /// context exports as pressure on its peers.
  ContextResult route_pass(const std::vector<RouteNet>& nets,
                           const timing::ContextTimingSpec* timing,
                           std::vector<double>* history,
                           const std::vector<double>* pressure,
                           std::vector<std::uint8_t>* usage_out);

  /// The pressure-free single-shot pass: what routing one independent
  /// context always was.
  ContextResult route_context(const std::vector<RouteNet>& nets,
                              const timing::ContextTimingSpec* timing =
                                  nullptr,
                              std::vector<double>* history = nullptr) {
    return route_pass(nets, timing, history, nullptr, nullptr);
  }

  // ---- Interleaved-session API (cross_context_mode == kInterleaved) ----
  //
  // A session adopts one context's CONVERGED routing (the scheduler's
  // round-0 baseline) and then rips up and re-routes INDIVIDUAL nets
  // against a live shared pressure array the scheduler owns — commit
  // granularity instead of round granularity.  Two properties make
  // net-granular negotiation sound without further PathFinder iterations:
  //   * sessions route EXCLUSIVELY — the expansion never enters a node
  //     another net of this context currently occupies — so intra-context
  //     occupancy can never exceed 1 and no overuse/history step is needed;
  //   * rip and route are SEPARATE calls, so the scheduler can subtract
  //     the ripped net's own usage from the shared pressure before the
  //     re-route (a net must not be repelled by its own old wires).
  // The session never touches history_ after the baseline seed, so the
  // baseline's congestion lessons price wires consistently all session.

  /// Adopts `routed` (parallel to `nets`, the converged baseline) and
  /// arms the session: occupancy/owner maps rebuilt from the trees,
  /// history seeded from `history_seed` (may be null), node costs built
  /// against `pressure_total` (graph-node-sized, scheduler-owned, may be
  /// null) scaled by `pressure_scale`, and per-net criticalities frozen
  /// from an STA of the adopted switch counts (1.0 per net when untimed).
  void session_begin(const std::vector<RouteNet>& nets,
                     const timing::ContextTimingSpec* timing,
                     const std::vector<RoutedNet>& routed,
                     const std::vector<double>* history_seed,
                     const double* pressure_total, double pressure_scale);

  /// Rips net `i` up: occupancy released, owner cleared, node costs
  /// patched.  `freed_wires` receives the WIRE nodes released (the
  /// scheduler's pressure patch set).  The old tree is retained for
  /// session_restore_net until the next rip.
  void session_rip_net(std::size_t i, std::vector<arch::NodeId>& freed_wires);

  /// Re-routes net `i` from scratch under exclusion + live pressure.
  /// On success commits occupancy/owner/node costs and fills
  /// `gained_wires` with the WIRE nodes of the new tree; on failure
  /// (a sink unreachable under exclusion) commits NOTHING and returns
  /// false — the caller restores the old tree.
  bool session_route_net(std::size_t i,
                         std::vector<arch::NodeId>& gained_wires);

  /// Re-commits the tree saved by the last session_rip_net (blocked
  /// re-route): occupancy, owner, and node costs return to their
  /// pre-rip state.
  void session_restore_net(std::size_t i);

  /// Re-derives the cached congestion cost at `nodes` after the scheduler
  /// patched the shared pressure array there (every context's session
  /// shares that array, so every core must be told).
  void session_refresh_pressure(const std::vector<arch::NodeId>& nodes);

  /// The session's current routing (adopted baseline + committed
  /// re-routes), parallel to the input nets.
  const std::vector<RoutedNet>& session_nets() const { return session_nets_; }

  /// Net index currently occupying wire node `node`, or -1.  Well-defined
  /// because sessions route exclusively (intra-context occupancy <= 1).
  std::int32_t session_owner(std::size_t node) const {
    return session_owner_[node];
  }

  /// Frozen criticality of net `i` (max over its connections; 1.0 when
  /// untimed) — the merged queue's priority key ingredient.
  double session_net_criticality(std::size_t i) const {
    return session_net_crit_[i];
  }

  /// Expansion-engine traffic accumulated by the session so far — the
  /// scheduler differences these across a wave for per-wave stats.
  std::size_t session_heap_pushes() const { return session_result_.heap_pushes; }
  std::size_t session_nodes_expanded() const {
    return session_result_.nodes_expanded;
  }

  /// Disarms the session and returns the expansion-engine traffic it
  /// accumulated (nets/iterations/converged are the scheduler's to fill).
  ContextResult session_finish();

  // ---- Speculative drain API (interleave_workers > 1) ----
  //
  // A WORKER core (a pool slot holding no session) re-routes one net of a
  // SESSION core entirely read-only: it reads the session's live
  // occupancy/cost arrays through a per-worker virtual-rip overlay that
  // prices the net's own old tree exactly as a real rip + pressure
  // patch-down would, records every (node, occupancy, cost) the expansion
  // read, and returns the candidate route without touching the session.
  // At commit time the scheduler performs the REAL rip + patch-down in
  // queue order and validates the recorded read-set against the live
  // arrays: the expansion's result is a pure function of those reads (plus
  // frozen criticalities/history/graph), so an intact read-set proves a
  // live re-route would reproduce the speculative result bit for bit, and
  // session_adopt_route commits it — counters included — as if the session
  // had computed it.  A mismatch means an earlier commit in the batch
  // interfered; the speculation is discarded and the net relived serially.

  /// One node of the virtual rip: `pressure` is the shared-pressure total
  /// the node will carry AFTER the rip's patch-down (the scheduler computes
  /// it with the exact summation patch() uses).
  struct SpecOverlay {
    arch::NodeId node;
    double pressure;
  };
  /// One recorded read: `cost_read` is 0 when the expansion only tested
  /// occupancy (exclusion) and never priced the node.
  struct SpecRead {
    arch::NodeId node;
    int occupancy;
    std::uint8_t cost_read;
    double cost;
  };
  struct SpecResult {
    bool found = false;  ///< False: a sink unreachable under exclusion.
    RoutedNet net;
    std::vector<arch::NodeId> tree;  ///< New tree, source + pins + wires.
    std::vector<SpecRead> reads;     ///< Dedup'd expansion read-set.
    std::size_t heap_pushes = 0;
    std::size_t heap_pops = 0;
    std::size_t stale_pops = 0;
    std::size_t nodes_expanded = 0;
  };

  /// Speculatively re-routes net `i` of `session` (an armed session core
  /// over the same graph) on THIS core's scratch, reading the session's
  /// arrays through the `overlay` virtual rip.  Never writes the session.
  /// `out` is reset first; on found=false the read-set is still complete,
  /// so a validated failure proves the live route would fail too.
  void speculate_route(const RouterCore& session, std::size_t i,
                       const std::vector<SpecOverlay>& overlay,
                       SpecResult& out);

  /// True iff every recorded read still matches this session's live
  /// occupancy/cost arrays (exact comparison — the determinism proof
  /// needs bit-identity, not tolerance).
  bool session_validate_reads(const std::vector<SpecRead>& reads) const;

  /// Commits a validated speculative route for net `i` exactly as the tail
  /// of session_route_net would: occupancy/owner/node costs at the new
  /// tree, `gained_wires` filled with its WIRE nodes, and the speculation's
  /// expansion counters folded into the session totals (they equal what a
  /// live re-route would have spent, so per-wave counter aggregation stays
  /// byte-stable across worker counts).
  void session_adopt_route(std::size_t i, SpecResult&& spec,
                           std::vector<arch::NodeId>& gained_wires);

  /// Folds a validated FAILED speculation's counters into the session
  /// totals (the live expansion would have spent them before giving up);
  /// the caller then restores the ripped net as usual.
  void session_fold_spec_counters(const SpecResult& spec);

  /// Current tree of net `i` (source + pins + wires) — the scheduler
  /// builds the virtual-rip overlay from it.
  const std::vector<arch::NodeId>& session_tree(std::size_t i) const {
    return session_tree_[i];
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

  /// expand_to_sink's speculative twin: identical relaxation arithmetic
  /// and pop order, but occupancy/cost come from `src` through the
  /// virtual-rip overlay, every read is recorded into `out`, and counters
  /// land in `out` instead of a ContextResult.
  bool spec_expand_to_sink(const RouterCore& src,
                           const std::vector<arch::NodeId>& tree,
                           arch::NodeId sink, double cong_scale,
                           double delay_term, SpecResult& out);

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

  // Pass-scoped cost inputs captured for refresh_node_cost.  The scale
  // defaults to 1.0 outside sessions, and x * 1.0 is bit-exact for every
  // finite x — so the scaled expression stays bit-identical to the
  // historical one for all non-session passes.
  double present_factor_ = 0.5;
  const double* pressure_of_ = nullptr;
  double pressure_scale_ = 1.0;
  /// Session mode: the expansion skips any node another net of this
  /// context occupies.  False (all non-session passes) is a no-op.
  bool session_exclusive_ = false;

  BucketQueue bucket_;

  // Timing caches (see TimingEngine) plus the per-pass criticality buffer.
  std::vector<std::unique_ptr<TimingEngine>> timing_cache_;
  std::vector<double> crit_;

  // Interleaved-session state (see the session_* methods).
  bool session_active_ = false;
  const std::vector<RouteNet>* session_input_ = nullptr;
  const timing::ContextTimingSpec* session_timing_ = nullptr;
  timing::ConnectionArcs* session_arcs_ = nullptr;
  std::vector<RoutedNet> session_nets_;
  std::vector<std::vector<arch::NodeId>> session_tree_;
  std::vector<std::int32_t> session_owner_;
  std::vector<double> session_net_crit_;
  ContextResult session_result_;
  // Single-slot undo state for the rip → route → (restore) protocol.
  std::size_t session_saved_index_ = 0;
  std::vector<RoutedPath> session_saved_paths_;
  std::vector<arch::NodeId> session_saved_tree_;

  // Speculation scratch (worker cores of the parallel drain).  Epoch-
  // stamped like the Dijkstra scratch: spec_mark_ validates the overlay
  // arrays, read_mark_/read_slot_ dedup the recorded read-set.  Lazily
  // sized on the first speculate_route call, so session-only and
  // independent-mode cores never pay for it.
  std::vector<std::uint32_t> spec_mark_;
  std::vector<int> spec_occ_;
  std::vector<double> spec_cost_;
  std::vector<std::uint32_t> read_mark_;
  std::vector<std::uint32_t> read_slot_;
  std::uint32_t spec_epoch_ = 0;
};

/// Pool of per-worker engine state: one RouterCore per slot, each on its
/// own ScratchArena, kept alive across routing calls so passes, rounds,
/// and closure iterations reuse warm scratch and cached timing DAGs
/// instead of re-mallocing and re-levelizing.  prepare() rebuilds a slot's
/// core only when the graph or options changed (the arena is reused even
/// then).  Slots are interchangeable — any core produces bit-identical
/// results for the same pass inputs — so callers may hand them to workers
/// in any order without perturbing determinism.  Not thread-safe: call
/// prepare() before fanning out, then give each worker its own slot.
/// checkout()/release() harden that hand-out: a checkout marks the slot
/// owned (atomically, so concurrent claimants cannot both win) and a
/// second checkout before release is an MCFPGA_CHECK failure — two workers
/// sharing an engine is the one race the speculative drain must never
/// have.  core() stays available for single-owner call sites.
class CorePool {
 public:
  void prepare(std::size_t count, const arch::RoutingGraph& graph,
               const RouterOptions& options);
  RouterCore& core(std::size_t slot) { return *slots_[slot].core; }
  std::size_t size() const { return slots_.size(); }

  /// Claims exclusive use of `slot` until release(); throws
  /// ProgrammingError if the slot is already claimed (or out of range).
  RouterCore& checkout(std::size_t slot);
  /// Returns a claimed slot; throws ProgrammingError if it was not
  /// checked out.
  void release(std::size_t slot);

 private:
  struct Slot {
    std::unique_ptr<common::ScratchArena> arena;
    std::unique_ptr<RouterCore> core;
    /// Heap-allocated so Slot stays movable (atomics are not).
    std::unique_ptr<std::atomic<bool>> in_use;
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
/// switch patterns, summaries (including cross_context_conflicts and the
/// expansion-engine counters) and net lists assembled in context order,
/// independent of which worker produced what.  Shared by the independent
/// Router::route path and the cross-context scheduler.
RouteResult merge_context_results(
    const arch::RoutingGraph& graph,
    std::vector<RouterCore::ContextResult>&& per_context);

}  // namespace mcfpga::route
