// Checks and prices of a compiled design that do not trust the compiler.
//
// The functional oracle evaluates the INPUT netlist — the one the
// benchmark generated — with netlist::evaluate and compares it against the
// fabric simulator programmed from the compiled design.  It deliberately
// does not use MCFPGA::verify, whose reference is the post-tech-map
// netlist the compiler under test produced.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "area/area_model.hpp"
#include "arch/routing_graph.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "config/serialize.hpp"
#include "core/flow.hpp"
#include "netlist/eval.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace mc = mcfpga;

/// Contexts with at most this many primary inputs are checked on every
/// input vector; wider ones on kSampledVectors seeded vectors.
inline constexpr std::size_t kExhaustiveInputs = 6;
inline constexpr std::size_t kSampledVectors = 64;

/// Mismatching (context, vector, output) triples between the reference
/// evaluation of `input` and the fabric simulator programmed by `design`.
/// A program the simulator rejects (shorted drivers) throws.
inline std::size_t oracle_mismatches(const mc::netlist::MultiContextNetlist& input,
                                     const mc::core::CompiledDesign& design,
                                     std::uint64_t seed) {
  const mc::arch::RoutingGraph graph(design.fabric);
  const mc::sim::FabricSimulator simulator(graph, design.program);
  mc::Rng rng(seed);
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < input.num_contexts(); ++c) {
    const mc::netlist::Dfg& dfg = input.context(c);
    std::vector<std::string> names;
    for (const auto& node : dfg.nodes()) {
      if (node.type == mc::netlist::NodeType::kPrimaryInput) {
        names.push_back(node.name);
      }
    }
    const bool exhaustive = names.size() <= kExhaustiveInputs;
    const std::size_t vectors =
        exhaustive ? std::size_t{1} << names.size() : kSampledVectors;
    for (std::size_t v = 0; v < vectors; ++v) {
      mc::netlist::ValueMap inputs;
      for (std::size_t i = 0; i < names.size(); ++i) {
        inputs[names[i]] = exhaustive ? ((v >> i) & 1U) != 0 : rng.next_bool();
      }
      const mc::netlist::ValueMap expected = mc::netlist::evaluate(dfg, inputs);
      const mc::netlist::ValueMap actual = simulator.eval(c, inputs);
      for (const auto& [name, value] : expected) {
        const auto it = actual.find(name);
        mismatches += (it == actual.end() || it->second != value) ? 1 : 0;
      }
    }
  }
  return mismatches;
}

/// The Sec. 5 area comparison of a design that has no MCFPGA object (the
/// CompileService results of the edit workload): switches grouped by
/// owning block exactly as MCFPGA::area_report groups them.  The cold
/// workloads cross-check it against MCFPGA::area_report on every design.
inline mc::area::ComparisonReport price(const mc::core::CompiledDesign& design) {
  const mc::arch::RoutingGraph graph(design.fabric);
  std::map<std::tuple<mc::arch::SwitchOwner, std::int32_t, std::int32_t>,
           mc::config::Bitstream>
      blocks;
  for (std::size_t s = 0; s < graph.num_switches(); ++s) {
    const auto& sw = graph.rr_switch(static_cast<mc::arch::SwitchId>(s));
    auto it = blocks.try_emplace(std::make_tuple(sw.owner, sw.x, sw.y),
                                 design.fabric.num_contexts)
                  .first;
    it->second.add_row(sw.name, mc::config::ResourceKind::kRoutingSwitch,
                       design.routing.switch_patterns[s]);
  }
  std::vector<mc::config::Bitstream> block_list;
  block_list.reserve(blocks.size());
  for (auto& [key, rows] : blocks) {
    block_list.push_back(std::move(rows));
  }
  return mc::area::AreaModel().compare_fabric(design.fabric, block_list, {});
}

/// Worst critical path over contexts, in SE-delay units.
inline double worst_critical_path(const mc::core::CompiledDesign& design) {
  double worst = 0.0;
  for (const auto& s : design.context_stats) {
    worst = std::max(worst, s.critical_path);
  }
  return worst;
}

/// Content hash of the serialized full bitstream.
inline std::uint64_t bitstream_hash(const mc::core::CompiledDesign& design) {
  return mc::common::fnv1a(mc::config::to_text(design.full_bitstream));
}

/// True when two compiles of one design agree byte for byte on the
/// bitstream and on every QoR figure the benchmark reports.
inline bool same_result(const mc::core::CompiledDesign& a,
                        const mc::core::CompiledDesign& b) {
  if (mc::config::to_text(a.full_bitstream) !=
          mc::config::to_text(b.full_bitstream) ||
      a.context_stats.size() != b.context_stats.size() ||
      a.routing.iterations != b.routing.iterations ||
      a.placement.cost != b.placement.cost) {
    return false;
  }
  for (std::size_t c = 0; c < a.context_stats.size(); ++c) {
    const auto& x = a.context_stats[c];
    const auto& y = b.context_stats[c];
    if (x.critical_path != y.critical_path ||
        x.wire_nodes_used != y.wire_nodes_used ||
        x.switches_crossed != y.switches_crossed ||
        x.nodes_expanded != y.nodes_expanded) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
