// PathFinder-style negotiated-congestion router over the fabric's
// routing-resource graph (paper Sec. 3).
//
// Contexts route independently; nothing couples them.  The fabric
// time-multiplexes its wires, so a physical wire can carry a different
// signal in every context at no bandwidth cost.  What the RCM decoder
// prices is how a switch's on/off pattern varies across contexts (constant
// rows are cheap), so pushing contexts off each other's wires would only
// turn constant rows into complex ones.
//
// Within a context the classic PathFinder loop applies, with node costs
// inflated by present congestion and accumulated history until no wire is
// shared: iteration 0 routes every net, and each later iteration rips up
// and re-routes only the nets whose tree touches an overused node at the
// start of their turn (VPR's rule).  A net is kept only while its tree
// shares no node, so overuse can only arise where a re-routed net lands,
// and the next iteration re-routes every net on an overused node under the
// rising present and history costs that drive negotiation to convergence.
// Congestion-free nets cost no maze expansions after iteration 0.
//
// The per-context engine lives in route/router_core.hpp (RouterCore, with
// preallocated scratch over the graph's flat CSR adjacency); Router::route
// fans contexts out over a small worker pool and merges results in context
// order, so parallel output is bit-identical to serial.  Every maze
// expansion runs Dial's algorithm on one calendar queue
// (route/bucket_queue.hpp) whose bucket width is derived from the cost
// model per pass (expansion_quantum), which keeps the expansion exact
// Dijkstra under every base cost and SE delay.
//
// Delay accounting follows the paper's SE model: every switch crossed
// costs one SE delay, so a straight run of L cells costs L switches on
// single-length wires but only ceil(L/2) diamond crossings on
// double-length lines (Fig. 10) — the router's base costs make the fast
// lines attractive for long connections, and `prefer_double_length`
// lets benches toggle the feature for the E5 comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/routing_graph.hpp"
#include "config/bitstream.hpp"
#include "config/pattern.hpp"
#include "timing/net_timing.hpp"

namespace mcfpga::route {

class CorePool;  // per-worker engine pool (route/router_core.hpp)

struct RouteNet {
  std::string name;
  arch::NodeId source = arch::kInvalidNode;
  std::vector<arch::NodeId> sinks;
};

struct RoutedPath {
  arch::NodeId sink = arch::kInvalidNode;
  /// Edges from the net's routed tree to this sink, source-to-sink order.
  std::vector<arch::EdgeId> edges;
  /// Switches crossed = edges.size(); the SE-delay of this connection.
  std::size_t switch_count() const { return edges.size(); }
  /// Switches crossed inside diamond switches (double-length usage marker).
  std::size_t diamond_count = 0;
};

struct RoutedNet {
  std::string name;
  arch::NodeId source = arch::kInvalidNode;
  std::vector<RoutedPath> paths;
};

struct RouterOptions {
  std::size_t max_iterations = 40;
  /// Multiplier on present congestion added per iteration.
  double present_factor_growth = 1.6;
  double history_increment = 1.0;
  /// When false, double-length wires are priced off the table (E5 ablation).
  bool prefer_double_length = true;
  /// Worker threads for per-context routing.  0 = one per hardware thread
  /// (capped at the context count); 1 = serial.  Results are bit-identical
  /// regardless of the value: contexts are independent and merged in
  /// context order.
  std::size_t num_threads = 0;
  /// Timing-driven negotiation: expansion cost becomes
  ///   crit * se_delay + (1 - crit) * congestion_cost
  /// per node entered, with per-connection criticalities refreshed from an
  /// incremental STA between rip-up iterations.  Requires timing specs to
  /// be passed to Router::route; off = bit-identical to the pure
  /// congestion router.
  bool timing_mode = false;
  /// VPR-style criticality-exponent ramp: rip-up iteration k sharpens
  /// criticalities with crit^min(max, start + k * step).  The default
  /// (1, 0, 1) keeps criticalities linear for the whole negotiation; a
  /// rising schedule lets early iterations spread congestion while late
  /// iterations chase the critical path hard.
  struct CriticalityExponentSchedule {
    double start = 1.0;  ///< Exponent at rip-up iteration 0.
    double step = 0.0;   ///< Added per rip-up iteration.
    double max = 1.0;    ///< Ceiling of the ramp (>= start).
    bool operator==(const CriticalityExponentSchedule&) const = default;
  };
  CriticalityExponentSchedule criticality_exponent_schedule{};
  /// Criticality ceiling, keeping a sliver of congestion pressure on even
  /// the most critical connection so negotiation still converges.
  double max_criticality = 0.99;

  /// Member-wise equality: lets engine pools detect that cached per-worker
  /// state was built for the same job shape and reuse it.
  bool operator==(const RouterOptions&) const = default;

  /// Throws InvalidArgument on out-of-range values (zero iteration budget,
  /// negative increments/weights, ...).  Called by Router's constructor.
  void validate() const;
};

/// Cross-call router state: one PathFinder history-cost array per context,
/// indexed by routing-graph node.  The timing-closure loop routes the same
/// contexts repeatedly (placements shift between iterations); carrying the
/// history forward lets later iterations start negotiation with the
/// congestion lessons of earlier ones instead of from scratch.
struct RouteHistory {
  std::vector<std::vector<double>> per_context;

  /// Sizes per_context to `num_contexts` and CLEARS any entry whose length
  /// does not match `num_nodes` — a history recorded on a different
  /// routing graph is stale, and seeding from it would silently misprice
  /// every node.  Router::route calls this on entry, so repeated closure
  /// iterations (or a reused history across differently sized fabrics)
  /// never grow or alias stale per-node state.
  void prepare(std::size_t num_contexts, std::size_t num_nodes);
};

/// Per-context aggregates collected while committing routed paths, so
/// downstream stats never re-scan every net.
struct ContextRouteSummary {
  std::size_t nets = 0;
  std::size_t wire_nodes_used = 0;
  std::size_t switches_crossed = 0;  ///< Sum over all sink connections.
  /// Calendar-queue traffic over the context's whole negotiation (every
  /// rip-up iteration, re-routed net, and sink; nets kept across a later
  /// iteration add none): queue pushes and pops, pops of entries a cheaper
  /// re-push superseded (the stale check), and nodes whose CSR row was
  /// actually scanned.  The historical heap_* names are kept because
  /// benches and BENCH_JSON baselines read them.
  std::size_t heap_pushes = 0;
  std::size_t heap_pops = 0;
  std::size_t stale_pops = 0;
  std::size_t nodes_expanded = 0;
};

struct RouteResult {
  bool success = false;
  std::size_t iterations = 0;
  /// nets[context][i] corresponds to the input nets of that context.
  std::vector<std::vector<RoutedNet>> nets;
  /// Per-switch on/off pattern across contexts (indexed by SwitchId).
  std::vector<config::ContextPattern> switch_patterns;
  /// One summary per context, filled during the routing commit.
  std::vector<ContextRouteSummary> context_summary;

  /// Worst switch count over all sink connections of one context.
  std::size_t critical_switches(std::size_t context) const;
  /// Full-fabric routing bitstream: one row per physical switch (including
  /// the never-used, constant-0 ones — they exist in silicon and dominate
  /// the pattern census), named by switch id through `graph`.
  config::Bitstream to_bitstream(
      std::shared_ptr<const arch::RoutingGraph> graph) const;
};

class Router {
 public:
  /// Validates `options` (InvalidArgument on bad values).
  Router(const arch::RoutingGraph& graph, RouterOptions options = {});

  /// Routes all contexts; nets_per_context.size() must equal the fabric's
  /// context count.  Throws FlowError when a net is unroutable outright
  /// (no physical path); returns success=false when congestion cannot be
  /// resolved within max_iterations.
  ///
  /// `timing` (one spec per context, parallel to the net lists) enables the
  /// timing-driven cost when options.timing_mode is set; contexts remain
  /// independent, so parallel results stay bit-identical to serial.
  ///
  /// `history` (may be null) carries PathFinder history costs across calls:
  /// it is prepare()d against this graph first (stale-sized entries are
  /// cleared), a context whose entry matches the graph's node count seeds
  /// its negotiation from it, and every context writes its final history
  /// back.  Seeding and write-back are per-context, so parallel results
  /// remain bit-identical to serial.
  ///
  /// `pool` (may be null = per-call engines) supplies per-worker
  /// RouterCores whose arena scratch and cached timing DAGs persist
  /// across calls — the closure loop routes every iteration, so reuse
  /// removes the per-call allocate-and-levelize tax.  Pooled and pool-free
  /// results are bit-identical.
  RouteResult route(const std::vector<std::vector<RouteNet>>& nets_per_context,
                    const std::vector<timing::ContextTimingSpec>* timing =
                        nullptr,
                    RouteHistory* history = nullptr,
                    CorePool* pool = nullptr) const;

 private:
  const arch::RoutingGraph& graph_;
  RouterOptions options_;
};

}  // namespace mcfpga::route
