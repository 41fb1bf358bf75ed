#include "route/router_core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/prefetch.hpp"

namespace mcfpga::route {

namespace {

using arch::EdgeId;
using arch::NodeId;
using arch::NodeKind;
using arch::SwitchOwner;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Ceiling on the present-congestion factor.  An overused node already
/// costs ~1e12x a free one here, so growing further buys no negotiation
/// pressure, while an unbounded product overflows to inf for a large but
/// finite present_factor_growth, and inf * 0 occupancy is NaN on every
/// free node.  The defaults (0.5 * 1.6^39 ~ 5e7) never reach it.
constexpr double kMaxPresentFactor = 1e12;

/// Epoch headroom: a pass can never consume this many expansions, so
/// rewinding the stamps whenever a pass STARTS above the threshold keeps
/// pooled cores (which live across thousands of passes) from ever wrapping
/// a 32-bit epoch mid-expansion.
constexpr std::uint32_t kEpochRewind = 0xF0000000u;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// Content signature of a timing spec: shape, delays, and every reader
/// arc.  Two specs with equal signatures levelize to the same DAG, so a
/// cached TimingEngine may serve either; the cache additionally pins the
/// spec's address, making a false positive require a respawned object at
/// the same address whose content ALSO collides — at which point the DAG
/// is the same anyway.
std::uint64_t spec_signature(const timing::ContextTimingSpec& spec) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, spec.num_nodes);
  h = fnv1a(h, std::bit_cast<std::uint64_t>(spec.se_delay));
  h = fnv1a(h, std::bit_cast<std::uint64_t>(spec.lut_delay));
  h = fnv1a(h, spec.nets.size());
  for (const auto& net : spec.nets) {
    h = fnv1a(h, net.sinks.size());
    for (const auto& sink : net.sinks) {
      h = fnv1a(h, sink.readers.size());
      for (const auto& r : sink.readers) {
        h = fnv1a(h, (static_cast<std::uint64_t>(r.from) << 32) | r.to);
        h = fnv1a(h, r.is_lut ? 1u : 0u);
      }
    }
  }
  return h;
}

}  // namespace

RouterCore::RouterCore(const arch::RoutingGraph& graph,
                       const RouterOptions& options,
                       common::ScratchArena* arena)
    : graph_(graph), options_(options), arena_(arena) {
  if (arena_ == nullptr) {
    arena_owned_ = std::make_unique<common::ScratchArena>();
    arena_ = arena_owned_.get();
  }
  arena_->reset();
  const std::size_t n = graph_.num_nodes();
  scratch_nodes_ = n;
  base_cost_ = arena_->alloc<double>(n);
  is_wire_ = arena_->alloc<std::uint8_t>(n);
  occupancy_ = arena_->alloc<int>(n);
  history_ = arena_->alloc<double>(n);
  node_cost_ = arena_->alloc<double>(n);
  nodes_ = arena_->alloc<NodeState>(n);
  min_base_cost_ = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node = graph_.node(static_cast<NodeId>(i));
    is_wire_[i] = node.kind == NodeKind::kWire ? 1 : 0;
    // Double-length wires cover two cells for one node, so per-distance
    // they are cheaper; pricing them at 3.5 when disabled-by-preference
    // keeps them routable but unattractive (the E5 ablation).
    if (node.kind != NodeKind::kWire) {
      base_cost_[i] = 0.5;  // pins/pads: cheap, they are endpoints
    } else if (node.length == 2) {
      base_cost_[i] = options_.prefer_double_length ? 1.0 : 3.5;
    } else {
      base_cost_[i] = 1.0;
    }
    min_base_cost_ = std::min(min_base_cost_, base_cost_[i]);
  }
  // Zeroed stamps are stale against the pre-incremented epochs (first use
  // is 1); dist/prev/depth are don't-care until stamped.
  if (n > 0) {
    std::memset(nodes_, 0, n * sizeof(NodeState));
    std::memset(occupancy_, 0, n * sizeof(int));
    std::memset(history_, 0, n * sizeof(double));
    std::memset(node_cost_, 0, n * sizeof(double));
  }
  epoch_ = 0;
  tree_epoch_ = 0;
}

double expansion_quantum(double min_base_cost,
                         const timing::ContextTimingSpec* timing) {
  if (timing == nullptr) {
    return min_base_cost;
  }
  MCFPGA_REQUIRE(std::isfinite(timing->se_delay) && timing->se_delay > 0.0,
                 "timing spec se_delay must be finite and positive");
  return std::min(min_base_cost, timing->se_delay);
}

void RouterCore::arm_queue(const timing::ContextTimingSpec* timing) {
  bucket_.configure(expansion_quantum(min_base_cost_, timing), kExpansionSpan);
}

double RouterCore::dist_of(std::size_t node) const {
  return nodes_[node].dist_epoch == epoch_ ? nodes_[node].dist : kInf;
}

void RouterCore::refresh_node_cost(std::size_t idx) {
  // Pressure is a present-cost term: pinned wires look congested before
  // this pass ever touches them.  Null pressure adds nothing.  The
  // expression and its operation order are the historical inline ones, so
  // the cache is bit-neutral.
  double congestion = 1.0 + history_[idx] +
                      present_factor_ * static_cast<double>(occupancy_[idx]);
  if (pressure_of_ != nullptr) {
    congestion += pressure_of_[idx];
  }
  node_cost_[idx] = base_cost_[idx] * congestion;
}

bool RouterCore::expand_to_sink(const std::vector<arch::NodeId>& tree,
                                arch::NodeId sink, double cong_scale,
                                double delay_term, ContextResult& result) {
  const std::vector<std::size_t>& offsets = graph_.csr_offsets();
  const std::vector<EdgeId>& csr_edges = graph_.csr_edges();
  const std::vector<NodeId>& csr_targets = graph_.csr_targets();

  ++epoch_;
  bucket_.clear();
  for (const NodeId t : tree) {
    const std::size_t ti = static_cast<std::size_t>(t);
    NodeState& s = nodes_[ti];
    const double seed = delay_term * static_cast<double>(s.depth);
    s.dist = seed;
    s.prev = -1;
    s.dist_epoch = epoch_;
    bucket_.push(seed, t);
    ++result.heap_pushes;
  }
  while (!bucket_.empty()) {
    const auto item = bucket_.pop();
    ++result.heap_pops;
    const std::size_t u = static_cast<std::size_t>(item.value);
    if (item.cost > dist_of(u)) {
      ++result.stale_pops;
      continue;
    }
    if (item.value == sink) {
      return true;
    }
    // Pins and pads are terminals: do not route THROUGH them.
    if (is_wire_[u] == 0 && item.cost != 0.0) {
      continue;
    }
    ++result.nodes_expanded;
    const std::size_t end = offsets[u + 1];
    for (std::size_t at = offsets[u]; at < end; ++at) {
      const NodeId v = csr_targets[at];
      const std::size_t vi = static_cast<std::size_t>(v);
      if (at + 1 < end) {
        // The next neighbor's cost and route record are known one step
        // early — overlap their (likely-missing) loads with this one.
        const std::size_t ni = static_cast<std::size_t>(csr_targets[at + 1]);
        MCFPGA_PREFETCH(&node_cost_[ni]);
        MCFPGA_PREFETCH(&nodes_[ni]);
      }
      // Only the target sink may be entered among non-wire nodes.
      if (is_wire_[vi] == 0 && v != sink) {
        continue;
      }
      // Nodes already in the net's tree are seeds, never targets:
      // relaxing one below its upstream-delay seed would back-trace
      // a second switch into it (a double-driven wire).  With zero
      // seeds this skip is a no-op — every relaxation cost is
      // strictly positive — so congestion-mode routing is untouched.
      NodeState& sv = nodes_[vi];
      if (sv.tree_epoch == tree_epoch_) {
        continue;
      }
      const double nd = item.cost + cong_scale * node_cost_[vi] + delay_term;
      if (nd < (sv.dist_epoch == epoch_ ? sv.dist : kInf)) {
        sv.dist = nd;
        sv.prev = csr_edges[at];
        sv.dist_epoch = epoch_;
        bucket_.push(nd, v);
        ++result.heap_pushes;
        // The pushed node's CSR row is its expansion's first load.
        MCFPGA_PREFETCH(&csr_targets[offsets[vi]]);
      }
    }
  }
  return false;
}

RouterCore::TimingEngine& RouterCore::timing_engine(
    const timing::ContextTimingSpec& spec) {
  const std::uint64_t sig = spec_signature(spec);
  for (auto& eng : timing_cache_) {
    if (eng->spec == &spec && eng->signature == sig) {
      // Rewind to the unit-switch prior.  Incremental analyze() is
      // bit-identical to a from-scratch pass (the TimingGraph property
      // tests' oracle), so a cache hit is indistinguishable from a fresh
      // levelization — minus the levelization.
      for (std::size_t conn = 0; conn < eng->arcs.num_connections(); ++conn) {
        eng->arcs.set_connection_switches(eng->sta, conn, 1);
      }
      eng->sta.analyze();
      return *eng;
    }
  }
  // A same-address miss means the spec object was rewritten: drop the
  // stale engine rather than letting the cache grow one corpse per edit.
  std::erase_if(timing_cache_, [&](const std::unique_ptr<TimingEngine>& e) {
    return e->spec == &spec;
  });
  if (timing_cache_.size() >= 8) {
    timing_cache_.erase(timing_cache_.begin());
  }
  timing_cache_.push_back(std::make_unique<TimingEngine>(spec, sig));
  timing_cache_.back()->sta.analyze();  // logic-depth criticality prior
  return *timing_cache_.back();
}

RouterCore::ContextResult RouterCore::route_pass(
    const std::vector<RouteNet>& nets,
    const timing::ContextTimingSpec* timing, std::vector<double>* history,
    const std::vector<double>* pressure) {
  const std::size_t num_nodes = graph_.num_nodes();
  MCFPGA_CHECK(scratch_nodes_ == num_nodes,
               "route_pass scratch must be graph-node-sized");
  MCFPGA_REQUIRE(pressure == nullptr || pressure->size() == num_nodes,
                 "route pressure must be graph-node-sized");
  pressure_of_ = pressure ? pressure->data() : nullptr;
  std::fill_n(occupancy_, num_nodes, 0);
  if (history != nullptr && history->size() == num_nodes) {
    // Carry-in from a previous closure-loop iteration: start negotiation
    // with the congestion lessons already learned on this context.
    std::copy(history->begin(), history->end(), history_);
  } else {
    std::fill_n(history_, num_nodes, 0.0);
  }
  present_factor_ = 0.5;

  // A pooled core lives across thousands of passes; rewind the 32-bit
  // epoch stamps long before they could wrap mid-pass.
  if (epoch_ >= kEpochRewind || tree_epoch_ >= kEpochRewind) {
    for (std::size_t i = 0; i < num_nodes; ++i) {
      nodes_[i].dist_epoch = 0;
      nodes_[i].tree_epoch = 0;
    }
    epoch_ = 0;
    tree_epoch_ = 0;
  }

  // Per-context incremental STA (timing-driven mode only).  The DAG's
  // topology is fixed for the whole negotiation; only switch counts — arc
  // delays — change between iterations, which is exactly the incremental
  // case TimingGraph::analyze() is built for.  The levelized engine is
  // cached across passes (timing_engine), so closure iterations re-time
  // instead of re-levelizing.
  const bool timing_driven = options_.timing_mode && timing != nullptr;
  timing::ConnectionArcs* conn_arcs = nullptr;
  timing::TimingGraph* sta = nullptr;
  if (timing_driven) {
    MCFPGA_REQUIRE(timing->nets.size() == nets.size(),
                   "timing spec must parallel the context's net list");
    for (std::size_t i = 0; i < nets.size(); ++i) {
      MCFPGA_REQUIRE(timing->nets[i].sinks.size() == nets[i].sinks.size(),
                     "timing spec sinks must parallel the net's sinks");
    }
    TimingEngine& engine = timing_engine(*timing);
    conn_arcs = &engine.arcs;
    sta = &engine.sta;
    crit_.assign(conn_arcs->num_connections(), 0.0);
  }
  arm_queue(timing_driven ? timing : nullptr);
  // VPR-style exponent ramp: the sharpening applied to criticalities
  // grows across rip-up iterations, so early rounds spread congestion
  // while late rounds chase the critical path hard.
  const auto exponent_at = [&](std::size_t iteration) {
    const RouterOptions::CriticalityExponentSchedule& s =
        options_.criticality_exponent_schedule;
    return std::min(s.max, s.start + s.step * static_cast<double>(iteration));
  };
  const auto refresh_criticality = [&](std::size_t iteration) {
    const double exponent = exponent_at(iteration);
    for (std::size_t conn = 0; conn < crit_.size(); ++conn) {
      double c = conn_arcs->connection_criticality(*sta, conn);
      if (exponent != 1.0) {
        c = std::pow(c, exponent);
      }
      crit_[conn] = std::min(c, options_.max_criticality);
    }
  };
  if (timing_driven) {
    refresh_criticality(0);
  }

  ContextResult result;
  result.nets.resize(nets.size());
  std::vector<std::vector<NodeId>> tree_nodes(nets.size());

  const auto unroute = [&](std::size_t i) {
    for (const NodeId n : tree_nodes[i]) {
      const std::size_t ni = static_cast<std::size_t>(n);
      --occupancy_[ni];
      refresh_node_cost(ni);
    }
    tree_nodes[i].clear();
    result.nets[i].paths.clear();
  };

  bool converged = false;
  std::size_t iter = 0;
  for (; iter < options_.max_iterations; ++iter) {
    // Congestion inputs (history, present factor) changed since the last
    // iteration: rebuild the hoisted per-node cost once, then patch it on
    // the O(tree) occupancy edits below.
    for (std::size_t n = 0; n < num_nodes; ++n) {
      refresh_node_cost(n);
    }
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const RouteNet& net = nets[i];
      if (!tree_nodes[i].empty()) {
        // Rip-up iterations after the first re-route only nets whose tree
        // touches an overused node at the start of their turn.  A kept
        // tree shares no node, so overuse only arises where a re-routed
        // net lands, and every net on it is re-routed next iteration.
        const bool congested =
            std::any_of(tree_nodes[i].begin(), tree_nodes[i].end(),
                        [&](NodeId n) {
                          return occupancy_[static_cast<std::size_t>(n)] > 1;
                        });
        if (!congested) {
          continue;
        }
        unroute(i);
      }
      result.nets[i].name = net.name;
      result.nets[i].source = net.source;

      // Grow the routing tree sink by sink (Prim-style maze expansion).
      std::vector<NodeId>& tree = tree_nodes[i];
      tree.push_back(net.source);
      ++tree_epoch_;
      nodes_[static_cast<std::size_t>(net.source)].tree_epoch = tree_epoch_;
      nodes_[static_cast<std::size_t>(net.source)].depth = 0;

      for (std::size_t j = 0; j < net.sinks.size(); ++j) {
        const NodeId sink = net.sinks[j];
        // Timing-driven blend for this connection: every node entered is
        // one switch crossing, so the delay term is crit * se_delay per
        // expansion step.  Reused tree wire seeds the expansion at its
        // accumulated upstream delay (crit-weighted, congestion-free), so
        // branching deep in the tree is not mistaken for a zero-delay
        // start.  With timing off the scales are exactly (1, 0) and every
        // seed is 0, leaving the cost bit-identical to the pure congestion
        // router.
        double cong_scale = 1.0;
        double delay_term = 0.0;
        if (timing_driven) {
          const double c = crit_[conn_arcs->connection(i, j)];
          cong_scale = 1.0 - c;
          delay_term = c * timing->se_delay;
        }
        if (!expand_to_sink(tree, sink, cong_scale, delay_term, result)) {
          throw FlowError("router: no physical path from " +
                          graph_.node(net.source).name + " to " +
                          graph_.node(sink).name);
        }
        // Back-trace; add new nodes to the tree.
        RoutedPath path;
        path.sink = sink;
        NodeId cur = sink;
        while (nodes_[static_cast<std::size_t>(cur)].prev != -1) {
          const EdgeId e = nodes_[static_cast<std::size_t>(cur)].prev;
          path.edges.push_back(e);
          if (graph_.rr_switch(graph_.edge(e).sw).owner ==
              SwitchOwner::kDiamond) {
            ++path.diamond_count;
          }
          cur = graph_.edge(e).from;
        }
        std::reverse(path.edges.begin(), path.edges.end());
        // Source-to-sink order guarantees every edge's from-node already
        // carries its depth (tree node or earlier path node), so new
        // nodes accumulate upstream switch counts in one pass.
        for (const EdgeId e : path.edges) {
          const NodeId v = graph_.edge(e).to;
          const std::size_t vi = static_cast<std::size_t>(v);
          if (nodes_[vi].tree_epoch != tree_epoch_) {
            nodes_[vi].tree_epoch = tree_epoch_;
            nodes_[vi].depth =
                nodes_[static_cast<std::size_t>(graph_.edge(e).from)].depth +
                1;
            tree.push_back(v);
          }
        }
        result.nets[i].paths.push_back(std::move(path));
      }

      for (const NodeId n : tree) {
        const std::size_t ni = static_cast<std::size_t>(n);
        ++occupancy_[ni];
        refresh_node_cost(ni);
      }
    }

    // Congestion check: wires may carry one net per context; source pins
    // are naturally exclusive; sink pins may be reached by one net only.
    bool overused = false;
    for (std::size_t n = 0; n < num_nodes; ++n) {
      if (occupancy_[n] > 1) {
        overused = true;
        history_[n] += options_.history_increment *
                       static_cast<double>(occupancy_[n] - 1);
      }
    }
    if (!overused) {
      converged = true;
      break;
    }
    present_factor_ = std::min(
        present_factor_ * options_.present_factor_growth, kMaxPresentFactor);

    if (timing_driven) {
      // Re-time every connection at its current switch count (incremental:
      // only changed delays propagate) and pull fresh criticalities for
      // the next rip-up round.
      for (std::size_t i = 0; i < nets.size(); ++i) {
        const auto& paths = result.nets[i].paths;
        for (std::size_t j = 0; j < paths.size(); ++j) {
          conn_arcs->set_connection_switches(
              *sta, conn_arcs->connection(i, j), paths[j].switch_count());
        }
      }
      sta->analyze();
      refresh_criticality(iter + 1);
    }
  }

  if (history != nullptr) {
    history->assign(history_, history_ + num_nodes);
  }
  pressure_of_ = nullptr;
  // On convergence the loop broke at index `iter`; otherwise the loop
  // condition already advanced iter to max_iterations.
  result.iterations = converged ? iter + 1 : iter;
  result.converged = converged;
  for (const auto& net : result.nets) {
    for (const auto& path : net.paths) {
      result.switches_crossed += path.switch_count();
      result.wire_nodes_used += path.edges.size();
    }
  }
  return result;
}

void CorePool::prepare(std::size_t count, const arch::RoutingGraph& graph,
                       const RouterOptions& options) {
  if (slots_.size() < count) {
    slots_.resize(count);
  }
  for (std::size_t s = 0; s < count; ++s) {
    Slot& slot = slots_[s];
    if (!slot.arena) {
      slot.arena = std::make_unique<common::ScratchArena>();
    }
    if (slot.core && &slot.core->graph() == &graph &&
        slot.core->options() == options) {
      continue;  // warm core, same job shape: reuse as-is
    }
    slot.core.reset();  // release before the ctor resets the arena
    slot.core = std::make_unique<RouterCore>(graph, options, slot.arena.get());
  }
}

RouteResult merge_context_results(
    const arch::RoutingGraph& graph,
    std::vector<RouterCore::ContextResult>&& per_context) {
  const std::size_t num_contexts = per_context.size();
  RouteResult result;
  result.success = true;
  result.nets.resize(num_contexts);
  result.context_summary.resize(num_contexts);
  result.switch_patterns.assign(graph.num_switches(),
                                config::ContextPattern(num_contexts, false));
  for (std::size_t c = 0; c < num_contexts; ++c) {
    RouterCore::ContextResult& ctx = per_context[c];
    result.iterations = std::max(result.iterations, ctx.iterations);
    if (!ctx.converged) {
      result.success = false;
    }
    for (const auto& net : ctx.nets) {
      for (const auto& path : net.paths) {
        for (const EdgeId e : path.edges) {
          result.switch_patterns[static_cast<std::size_t>(graph.edge(e).sw)]
              .set_value(c, true);
        }
      }
    }
    result.context_summary[c].nets = ctx.nets.size();
    result.context_summary[c].wire_nodes_used = ctx.wire_nodes_used;
    result.context_summary[c].switches_crossed = ctx.switches_crossed;
    result.context_summary[c].heap_pushes = ctx.heap_pushes;
    result.context_summary[c].heap_pops = ctx.heap_pops;
    result.context_summary[c].stale_pops = ctx.stale_pops;
    result.context_summary[c].nodes_expanded = ctx.nodes_expanded;
    result.nets[c] = std::move(ctx.nets);
  }
  return result;
}

}  // namespace mcfpga::route
