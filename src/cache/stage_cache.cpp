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
// the stage's contract says it produces (core/stages.hpp header comment),
// minus the routing graph (FlowCache::graph_for supplies it on replay).

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

struct RouteArtifact {
  std::vector<timing::ContextTimingSpec> timing_specs;
  std::vector<std::vector<std::size_t>> net_class;
  std::vector<std::vector<std::vector<core::SinkKey>>> sink_keys;
  route::RouteResult routing;
  route::RouteHistory history;
};

struct TimingArtifact {
  std::vector<timing::TimingReport> reports;
  std::vector<core::ContextStats> stats;
};

struct ProgramArtifact {
  sim::FabricProgram program;
  config::Bitstream bitstream;  ///< Without its switch-name source.
};

/// The whole Place/Route/Timing block of a closure-loop compile, cached as
/// one unit (the loop's iterations are not separately addressable).
struct ClosureArtifact {
  arch::FabricSpec spec;
  place::Placement placement;
  std::vector<timing::ContextTimingSpec> timing_specs;
  std::vector<std::vector<std::size_t>> net_class;
  std::vector<std::vector<std::vector<core::SinkKey>>> sink_keys;
  route::RouteResult routing;
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
  std::size_t total = 128 + r.context_summary.size() * 80 +
                      r.switch_patterns.size() * sizeof(config::ContextPattern);
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

/// Looks `key` up under the cache's lock.  The snapshot handed back is
/// immutable, so restoring from it needs no lock.
template <typename T>
std::shared_ptr<const T> locked_find(std::mutex& mu, ArtifactCache& store,
                                     std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mu);
  return store.find<T>(key);
}

/// Publishes an artifact built outside the lock.
template <typename T>
void locked_store(std::mutex& mu, ArtifactCache& store, std::uint64_t key,
                  std::shared_ptr<const T> value, std::size_t bytes) {
  const std::lock_guard<std::mutex> lock(mu);
  store.store<T>(key, std::move(value), bytes);
}

}  // namespace

void FlowCache::attach(core::FlowContext& ctx) {
  MCFPGA_REQUIRE(ctx.input != nullptr,
                 "FlowCache::attach needs a seeded flow context");
  ctx.cache = this;
  ctx.cache_key = flow_base_key(*ctx.input, ctx.spec, ctx.options);
  ctx.cache_key_valid = true;
}

ArtifactCache::Counters FlowCache::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return artifacts_.counters();
}

std::shared_ptr<const arch::RoutingGraph> FlowCache::graph_for(
    const arch::FabricSpec& spec) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(graphs_,
                [](const auto& entry) { return entry.second.expired(); });
  std::weak_ptr<const arch::RoutingGraph>& slot =
      graphs_[hash_fabric_spec(spec)];
  std::shared_ptr<const arch::RoutingGraph> graph = slot.lock();
  if (graph == nullptr || graph->spec() != spec) {
    graph = std::make_shared<const arch::RoutingGraph>(spec);
    slot = graph;
  }
  return graph;
}

bool FlowCache::before_stage(const char* stage, core::FlowContext& ctx) {
  if (!ctx.cache_key_valid) {
    return false;
  }
  ctx.cache_key = stage_key(ctx.cache_key, stage);
  const std::uint64_t key = ctx.cache_key;
  const std::string_view name(stage);

  if (name == "tech_map") {
    if (const auto a = locked_find<TechMapArtifact>(mu_, artifacts_, key)) {
      ctx.netlist = a->netlist;
      return true;
    }
  } else if (name == "sharing") {
    if (const auto a = locked_find<SharingArtifact>(mu_, artifacts_, key)) {
      ctx.sharing = a->sharing;
      ctx.uses = a->uses;
      return true;
    }
  } else if (name == "plane_alloc") {
    if (const auto a = locked_find<PlaneArtifact>(mu_, artifacts_, key)) {
      ctx.planes = a->planes;
      return true;
    }
  } else if (name == "cluster") {
    if (const auto a = locked_find<ClusterArtifact>(mu_, artifacts_, key)) {
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
    if (const auto a = locked_find<PlaceArtifact>(mu_, artifacts_, key)) {
      // The graph is deterministic in the grown spec, so restoring the
      // spec and taking its graph (graph_for, through ctx.cache) replays
      // PlaceStage's physical world; the flow_timing / placement_build
      // by-products stay absent and their consumers rebuild them on
      // demand (both are pure functions of the clustering).
      ctx.spec = a->spec;
      core::attach_graph(ctx);
      ctx.placement = a->placement;
      return true;
    }
  } else if (name == "route") {
    if (const auto a = locked_find<RouteArtifact>(mu_, artifacts_, key)) {
      ctx.timing_specs = a->timing_specs;
      ctx.net_class = a->net_class;
      ctx.sink_keys = a->sink_keys;
      ctx.routing = a->routing;
      ctx.route_history = a->history;
      ctx.flow_timing.reset();  // replays RouteStage consuming the cache
      return true;
    }
  } else if (name == "timing") {
    if (const auto a = locked_find<TimingArtifact>(mu_, artifacts_, key)) {
      ctx.timing_reports = a->reports;
      ctx.context_stats = a->stats;
      return true;
    }
  } else if (name == "program") {
    if (const auto a = locked_find<ProgramArtifact>(mu_, artifacts_, key)) {
      ctx.program = a->program;
      ctx.full_bitstream = a->bitstream;
      ctx.full_bitstream.set_switch_names(ctx.graph);
      return true;
    }
  } else if (name == "closure") {
    if (const auto a = locked_find<ClosureArtifact>(mu_, artifacts_, key)) {
      ctx.spec = a->spec;
      core::attach_graph(ctx);
      ctx.placement = a->placement;
      ctx.timing_specs = a->timing_specs;
      ctx.net_class = a->net_class;
      ctx.sink_keys = a->sink_keys;
      ctx.routing = a->routing;
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
  const std::uint64_t key = ctx.cache_key;
  const std::string_view name(stage);

  if (name == "tech_map") {
    auto a = std::make_shared<TechMapArtifact>();
    a->netlist = ctx.netlist;
    const std::size_t bytes = bytes_of(a->netlist);
    locked_store<TechMapArtifact>(mu_, artifacts_, key, std::move(a), bytes);
  } else if (name == "sharing") {
    auto a = std::make_shared<SharingArtifact>();
    a->sharing = ctx.sharing;
    a->uses = ctx.uses;
    std::size_t bytes = 64;
    for (const auto& per_ctx : a->sharing.class_of) {
      bytes += 24 + per_ctx.size() * 8;
    }
    bytes += a->sharing.classes.size() * 96 + a->uses.size() * 96;
    locked_store<SharingArtifact>(mu_, artifacts_, key, std::move(a), bytes);
  } else if (name == "plane_alloc") {
    auto a = std::make_shared<PlaneArtifact>();
    a->planes = ctx.planes;
    const std::size_t bytes = 128 + a->planes.slots.size() * 160;
    locked_store<PlaneArtifact>(mu_, artifacts_, key, std::move(a), bytes);
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
    locked_store<ClusterArtifact>(mu_, artifacts_, key, std::move(a), bytes);
  } else if (name == "place") {
    auto a = std::make_shared<PlaceArtifact>();
    a->spec = ctx.spec;
    a->placement = ctx.placement;
    const std::size_t bytes = 128 + bytes_of(a->placement);
    locked_store<PlaceArtifact>(mu_, artifacts_, key, std::move(a), bytes);
  } else if (name == "route") {
    auto a = std::make_shared<RouteArtifact>();
    a->timing_specs = ctx.timing_specs;
    a->net_class = ctx.net_class;
    a->sink_keys = ctx.sink_keys;
    a->routing = ctx.routing;
    a->history = ctx.route_history;
    const std::size_t bytes = bytes_of(a->timing_specs) +
                              sink_keys_bytes(a->sink_keys) +
                              bytes_of(a->routing) + bytes_of(a->history);
    locked_store<RouteArtifact>(mu_, artifacts_, key, std::move(a), bytes);
  } else if (name == "timing") {
    auto a = std::make_shared<TimingArtifact>();
    a->reports = ctx.timing_reports;
    a->stats = ctx.context_stats;
    const std::size_t bytes =
        bytes_of(a->reports) + a->stats.size() * sizeof(core::ContextStats);
    locked_store<TimingArtifact>(mu_, artifacts_, key, std::move(a), bytes);
  } else if (name == "program") {
    auto a = std::make_shared<ProgramArtifact>();
    a->program = ctx.program;
    a->bitstream = ctx.full_bitstream;
    a->bitstream.set_switch_names(nullptr);
    // Rows plus name references, and ~24 name bytes per non-switch row.
    const std::size_t rows = a->bitstream.num_rows();
    const std::size_t owned_names =
        rows - a->bitstream.count_kind(config::ResourceKind::kRoutingSwitch);
    const std::size_t bytes =
        256 + a->program.lbs.size() * 256 +
        a->program.switch_patterns.size() * sizeof(config::ContextPattern) +
        rows * (sizeof(config::BitstreamRow) + 8) + owned_names * 24;
    locked_store<ProgramArtifact>(mu_, artifacts_, key, std::move(a), bytes);
  } else if (name == "closure") {
    auto a = std::make_shared<ClosureArtifact>();
    a->spec = ctx.spec;
    a->placement = ctx.placement;
    a->timing_specs = ctx.timing_specs;
    a->net_class = ctx.net_class;
    a->sink_keys = ctx.sink_keys;
    a->routing = ctx.routing;
    a->history = ctx.route_history;
    a->reports = ctx.timing_reports;
    a->stats = ctx.context_stats;
    a->closure_stats = ctx.closure_stats;
    const std::size_t bytes =
        128 + bytes_of(a->placement) + bytes_of(a->timing_specs) +
        sink_keys_bytes(a->sink_keys) + bytes_of(a->routing) +
        bytes_of(a->history) + bytes_of(a->reports) +
        a->closure_stats.size() * sizeof(core::ClosureIterationStats);
    locked_store<ClosureArtifact>(mu_, artifacts_, key, std::move(a), bytes);
  }
}

}  // namespace mcfpga::cache
