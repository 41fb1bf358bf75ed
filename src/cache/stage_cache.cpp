#include "cache/stage_cache.hpp"

#include <string_view>
#include <utility>

#include "cache/key.hpp"
#include "common/error.hpp"
#include "core/timing_build.hpp"

namespace mcfpga::cache {

namespace {

// --- stored artifact types ---------------------------------------------------
// One immutable value snapshot per stage, exactly the FlowContext fields
// the stage's contract says it produces (core/stages.hpp header comment).
// Switch patterns and bitstream rows are interned: the artifact keeps
// refcounted PatternSet ids and the owning FlowCache's interner stores
// each distinct pattern once across every cached design.

struct TechMapArtifact {
  netlist::MultiContextNetlist netlist;
};

struct SharingArtifact {
  netlist::SharingAnalysis sharing;
  std::vector<mapping::ClassUse> uses;
};

struct PlaneArtifact {
  mapping::PlaneAllocation planes;
};

struct ClusterArtifact {
  std::vector<core::Cluster> clusters;
  std::vector<std::size_t> slot_cluster;
  std::vector<std::size_t> slot_output;
  std::unordered_map<std::size_t, std::string> input_class_name;
  std::map<std::string, std::vector<std::size_t>> output_driver;
  std::unordered_map<std::size_t, std::size_t> input_class_terminal;
  std::map<std::string, std::size_t> input_terminals;
  std::map<std::string, std::size_t> output_terminals;
  std::size_t num_terminals = 0;
};

struct PlaceArtifact {
  arch::FabricSpec spec;  ///< Auto-grown; the graph rebuilds from it.
  place::Placement placement;
};

/// A RouteResult with its switch patterns swapped out for interner ids.
struct RoutingSnapshot {
  route::RouteResult routing;  ///< switch_patterns left empty.
  PatternSet patterns;         ///< One id per switch, in SwitchId order.
};

struct RouteArtifact {
  std::vector<timing::ContextTimingSpec> timing_specs;
  std::vector<std::vector<std::size_t>> net_class;
  std::vector<std::vector<std::vector<core::SinkKey>>> sink_keys;
  RoutingSnapshot routing;
  route::RouteHistory history;
};

struct TimingArtifact {
  std::vector<timing::TimingReport> reports;
  std::vector<core::ContextStats> stats;
};

struct ProgramArtifact {
  sim::FabricProgram program;  ///< switch_patterns left empty (interned).
  PatternSet program_patterns;
  struct Row {
    std::string name;
    config::ResourceKind kind;
  };
  std::vector<Row> rows;   ///< Bitstream rows; patterns interned below.
  PatternSet row_patterns;  ///< Parallel to rows.
  std::size_t bitstream_contexts = 0;
};

/// The whole Place/Route/Timing block of a closure-loop compile, cached as
/// one unit (the loop's iterations are not separately addressable).
struct ClosureArtifact {
  arch::FabricSpec spec;
  place::Placement placement;
  std::vector<timing::ContextTimingSpec> timing_specs;
  std::vector<std::vector<std::size_t>> net_class;
  std::vector<std::vector<std::vector<core::SinkKey>>> sink_keys;
  RoutingSnapshot routing;
  route::RouteHistory history;
  std::vector<timing::TimingReport> reports;
  std::vector<core::ContextStats> stats;
  std::vector<core::ClosureIterationStats> closure_stats;
};

// --- size estimates ----------------------------------------------------------
// Rough heap footprints for the cache's byte bound — dominant vectors
// only, constants for the rest.

std::size_t bytes_of(const std::string& s) { return 32 + s.size(); }
std::size_t bytes_of(const BitVector& v) {
  return 24 + v.words().size() * 8;
}

std::size_t bytes_of(const netlist::MultiContextNetlist& nl) {
  std::size_t total = 64;
  for (std::size_t c = 0; c < nl.num_contexts(); ++c) {
    for (const auto& node : nl.context(c).nodes()) {
      total += 64 + bytes_of(node.name) + node.fanins.size() * 4 +
               bytes_of(node.truth_table);
    }
    total += nl.context(c).outputs().size() * 48;
  }
  return total;
}

std::size_t bytes_of(const route::RouteResult& r) {
  std::size_t total = 128 + r.context_summary.size() * 80;
  for (const auto& nets : r.nets) {
    for (const auto& net : nets) {
      total += 64 + bytes_of(net.name);
      for (const auto& path : net.paths) {
        total += 48 + path.edges.size() * 4;
      }
    }
  }
  return total;
}

std::size_t bytes_of(const std::vector<timing::ContextTimingSpec>& specs) {
  std::size_t total = 0;
  for (const auto& spec : specs) {
    total += 64;
    for (const auto& net : spec.nets) {
      total += 32;
      for (const auto& sink : net.sinks) {
        total += 24 + sink.readers.size() * 12;
      }
    }
  }
  return total;
}

std::size_t bytes_of(const place::Placement& p) {
  return 96 + p.cluster_pos.size() * 16 + p.io_pads.size() * 8 +
         p.restart_stats.size() * sizeof(place::RestartStat);
}

std::size_t bytes_of(const std::vector<timing::TimingReport>& reports) {
  std::size_t total = 0;
  for (const auto& r : reports) {
    total += 96 + (r.arrival.size() + r.required.size()) * 8 +
             r.critical_nodes.size() * 8;
  }
  return total;
}

std::size_t sink_keys_bytes(
    const std::vector<std::vector<std::vector<core::SinkKey>>>& keys) {
  std::size_t total = 0;
  for (const auto& per_ctx : keys) {
    for (const auto& per_net : per_ctx) {
      total += 24 + per_net.size() * sizeof(core::SinkKey);
    }
  }
  return total;
}

std::size_t bytes_of(const route::RouteHistory& h) {
  std::size_t total = 24;
  for (const auto& per_ctx : h.per_context) {
    total += 24 + per_ctx.size() * 8;
  }
  return total;
}

// --- intern/materialize helpers ---------------------------------------------

RoutingSnapshot snapshot_routing(const route::RouteResult& routing,
                                 PatternInterner& interner) {
  RoutingSnapshot snap;
  snap.routing = routing;
  snap.patterns = PatternSet(&interner);
  for (const auto& pattern : snap.routing.switch_patterns) {
    snap.patterns.add(pattern);
  }
  snap.routing.switch_patterns.clear();
  return snap;
}

route::RouteResult materialize_routing(const RoutingSnapshot& snap) {
  route::RouteResult routing = snap.routing;
  routing.switch_patterns.reserve(snap.patterns.size());
  for (std::size_t i = 0; i < snap.patterns.size(); ++i) {
    routing.switch_patterns.push_back(snap.patterns.pattern(i));
  }
  return routing;
}

}  // namespace

void FlowCache::attach(core::FlowContext& ctx) {
  MCFPGA_REQUIRE(ctx.input != nullptr,
                 "FlowCache::attach needs a seeded flow context");
  ctx.cache = this;
  ctx.cache_key = flow_base_key(*ctx.input, ctx.spec, ctx.options);
  ctx.cache_key_valid = true;
}

FlowCache::Stats FlowCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.counters = artifacts_.counters();
  s.live_patterns = interner_.num_live();
  s.pattern_dedup_hits = interner_.dedup_hits();
  return s;
}

bool FlowCache::before_stage(const char* stage, core::FlowContext& ctx) {
  if (!ctx.cache_key_valid) {
    return false;
  }
  // One lock over lookup + restore: restores copy out of shared_ptr
  // snapshots and materialize patterns through the interner, both of
  // which a concurrent publish could invalidate mid-read.
  const std::lock_guard<std::mutex> lock(mu_);
  ctx.cache_key = stage_key(ctx.cache_key, stage);
  const std::uint64_t key = ctx.cache_key;
  const std::string_view name(stage);

  if (name == "tech_map") {
    if (const auto a = artifacts_.find<TechMapArtifact>(key)) {
      ctx.netlist = a->netlist;
      return true;
    }
  } else if (name == "sharing") {
    if (const auto a = artifacts_.find<SharingArtifact>(key)) {
      ctx.sharing = a->sharing;
      ctx.uses = a->uses;
      return true;
    }
  } else if (name == "plane_alloc") {
    if (const auto a = artifacts_.find<PlaneArtifact>(key)) {
      ctx.planes = a->planes;
      return true;
    }
  } else if (name == "cluster") {
    if (const auto a = artifacts_.find<ClusterArtifact>(key)) {
      ctx.clusters = a->clusters;
      ctx.slot_cluster = a->slot_cluster;
      ctx.slot_output = a->slot_output;
      ctx.input_class_name = a->input_class_name;
      ctx.output_driver = a->output_driver;
      ctx.input_class_terminal = a->input_class_terminal;
      ctx.input_terminals = a->input_terminals;
      ctx.output_terminals = a->output_terminals;
      ctx.num_terminals = a->num_terminals;
      return true;
    }
  } else if (name == "place") {
    if (const auto a = artifacts_.find<PlaceArtifact>(key)) {
      // The graph is deterministic in the grown spec, so restoring the
      // spec and rebuilding it replays PlaceStage's physical world; the
      // flow_timing / placement_build by-products stay absent and their
      // consumers rebuild them on demand (both are pure functions of the
      // clustering).
      ctx.spec = a->spec;
      core::size_fabric_and_build_graph(ctx);
      ctx.placement = a->placement;
      return true;
    }
  } else if (name == "route") {
    if (const auto a = artifacts_.find<RouteArtifact>(key)) {
      ctx.timing_specs = a->timing_specs;
      ctx.net_class = a->net_class;
      ctx.sink_keys = a->sink_keys;
      ctx.routing = materialize_routing(a->routing);
      ctx.route_history = a->history;
      ctx.flow_timing.reset();  // replays RouteStage consuming the cache
      return true;
    }
  } else if (name == "timing") {
    if (const auto a = artifacts_.find<TimingArtifact>(key)) {
      ctx.timing_reports = a->reports;
      ctx.context_stats = a->stats;
      return true;
    }
  } else if (name == "program") {
    if (const auto a = artifacts_.find<ProgramArtifact>(key)) {
      ctx.program = a->program;
      ctx.program.switch_patterns.reserve(a->program_patterns.size());
      for (std::size_t i = 0; i < a->program_patterns.size(); ++i) {
        ctx.program.switch_patterns.push_back(a->program_patterns.pattern(i));
      }
      ctx.full_bitstream = config::Bitstream(a->bitstream_contexts);
      for (std::size_t r = 0; r < a->rows.size(); ++r) {
        ctx.full_bitstream.add_row(a->rows[r].name, a->rows[r].kind,
                                   a->row_patterns.pattern(r));
      }
      return true;
    }
  } else if (name == "closure") {
    if (const auto a = artifacts_.find<ClosureArtifact>(key)) {
      ctx.spec = a->spec;
      core::size_fabric_and_build_graph(ctx);
      ctx.placement = a->placement;
      ctx.timing_specs = a->timing_specs;
      ctx.net_class = a->net_class;
      ctx.sink_keys = a->sink_keys;
      ctx.routing = materialize_routing(a->routing);
      ctx.route_history = a->history;
      ctx.timing_reports = a->reports;
      ctx.context_stats = a->stats;
      ctx.closure_stats = a->closure_stats;
      return true;
    }
  }
  return false;
}

void FlowCache::after_stage(const char* stage, core::FlowContext& ctx) {
  if (!ctx.cache_key_valid) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t key = ctx.cache_key;
  const std::string_view name(stage);

  if (name == "tech_map") {
    auto a = std::make_shared<TechMapArtifact>();
    a->netlist = ctx.netlist;
    const std::size_t bytes = bytes_of(a->netlist);
    artifacts_.store<TechMapArtifact>(key, std::move(a), bytes);
  } else if (name == "sharing") {
    auto a = std::make_shared<SharingArtifact>();
    a->sharing = ctx.sharing;
    a->uses = ctx.uses;
    std::size_t bytes = 64;
    for (const auto& per_ctx : a->sharing.class_of) {
      bytes += 24 + per_ctx.size() * 8;
    }
    bytes += a->sharing.classes.size() * 96 + a->uses.size() * 96;
    artifacts_.store<SharingArtifact>(key, std::move(a), bytes);
  } else if (name == "plane_alloc") {
    auto a = std::make_shared<PlaneArtifact>();
    a->planes = ctx.planes;
    const std::size_t bytes = 128 + a->planes.slots.size() * 160;
    artifacts_.store<PlaneArtifact>(key, std::move(a), bytes);
  } else if (name == "cluster") {
    auto a = std::make_shared<ClusterArtifact>();
    a->clusters = ctx.clusters;
    a->slot_cluster = ctx.slot_cluster;
    a->slot_output = ctx.slot_output;
    a->input_class_name = ctx.input_class_name;
    a->output_driver = ctx.output_driver;
    a->input_class_terminal = ctx.input_class_terminal;
    a->input_terminals = ctx.input_terminals;
    a->output_terminals = ctx.output_terminals;
    a->num_terminals = ctx.num_terminals;
    std::size_t bytes = 256 + a->clusters.size() * 128 +
                        (a->slot_cluster.size() + a->slot_output.size()) * 8;
    for (const auto& [cls, n] : a->input_class_name) {
      bytes += 48 + bytes_of(n);
    }
    for (const auto& [n, drivers] : a->output_driver) {
      bytes += 48 + bytes_of(n) + drivers.size() * 8;
    }
    artifacts_.store<ClusterArtifact>(key, std::move(a), bytes);
  } else if (name == "place") {
    auto a = std::make_shared<PlaceArtifact>();
    a->spec = ctx.spec;
    a->placement = ctx.placement;
    const std::size_t bytes = 128 + bytes_of(a->placement);
    artifacts_.store<PlaceArtifact>(key, std::move(a), bytes);
  } else if (name == "route") {
    auto a = std::make_shared<RouteArtifact>();
    a->timing_specs = ctx.timing_specs;
    a->net_class = ctx.net_class;
    a->sink_keys = ctx.sink_keys;
    a->routing = snapshot_routing(ctx.routing, interner_);
    a->history = ctx.route_history;
    const std::size_t bytes = bytes_of(a->timing_specs) +
                              sink_keys_bytes(a->sink_keys) +
                              bytes_of(a->routing.routing) +
                              a->routing.patterns.size() * 4 +
                              bytes_of(a->history);
    artifacts_.store<RouteArtifact>(key, std::move(a), bytes);
  } else if (name == "timing") {
    auto a = std::make_shared<TimingArtifact>();
    a->reports = ctx.timing_reports;
    a->stats = ctx.context_stats;
    const std::size_t bytes =
        bytes_of(a->reports) + a->stats.size() * sizeof(core::ContextStats);
    artifacts_.store<TimingArtifact>(key, std::move(a), bytes);
  } else if (name == "program") {
    auto a = std::make_shared<ProgramArtifact>();
    a->program = ctx.program;
    a->program_patterns = PatternSet(&interner_);
    for (const auto& pattern : a->program.switch_patterns) {
      a->program_patterns.add(pattern);
    }
    a->program.switch_patterns.clear();
    a->row_patterns = PatternSet(&interner_);
    a->rows.reserve(ctx.full_bitstream.num_rows());
    for (const auto& row : ctx.full_bitstream.rows()) {
      a->rows.push_back(ProgramArtifact::Row{row.name, row.kind});
      a->row_patterns.add(row.pattern);
    }
    a->bitstream_contexts = ctx.full_bitstream.num_contexts();
    std::size_t bytes = 256 + a->program.lbs.size() * 256 +
                        (a->program_patterns.size() +
                         a->row_patterns.size()) * 4;
    for (const auto& row : a->rows) {
      bytes += 16 + bytes_of(row.name);
    }
    artifacts_.store<ProgramArtifact>(key, std::move(a), bytes);
  } else if (name == "closure") {
    auto a = std::make_shared<ClosureArtifact>();
    a->spec = ctx.spec;
    a->placement = ctx.placement;
    a->timing_specs = ctx.timing_specs;
    a->net_class = ctx.net_class;
    a->sink_keys = ctx.sink_keys;
    a->routing = snapshot_routing(ctx.routing, interner_);
    a->history = ctx.route_history;
    a->reports = ctx.timing_reports;
    a->stats = ctx.context_stats;
    a->closure_stats = ctx.closure_stats;
    const std::size_t bytes =
        128 + bytes_of(a->placement) + bytes_of(a->timing_specs) +
        sink_keys_bytes(a->sink_keys) + bytes_of(a->routing.routing) +
        bytes_of(a->history) + bytes_of(a->reports) +
        a->closure_stats.size() * sizeof(core::ClosureIterationStats);
    artifacts_.store<ClosureArtifact>(key, std::move(a), bytes);
  }
}

}  // namespace mcfpga::cache
