#include "core/mcfpga.hpp"

#include <map>

#include "common/rng.hpp"
#include "netlist/eval.hpp"

namespace mcfpga::core {

MCFPGA::MCFPGA(const netlist::MultiContextNetlist& netlist,
               const arch::FabricSpec& spec, const CompileOptions& options)
    : design_(compile(netlist, spec, options)),
      simulator_(std::make_unique<sim::FabricSimulator>(*design_.graph,
                                                        design_.program)) {}

netlist::ValueMap MCFPGA::run(std::size_t context,
                              const netlist::ValueMap& inputs) const {
  return simulator_->eval(context, inputs);
}

std::size_t MCFPGA::verify(std::size_t vectors, std::uint64_t seed) const {
  Rng rng(seed);
  std::size_t mismatches = 0;
  for (std::size_t c = 0; c < design_.fabric.num_contexts; ++c) {
    const netlist::Dfg& dfg = design_.netlist.context(c);
    for (std::size_t v = 0; v < vectors; ++v) {
      netlist::ValueMap inputs;
      for (const auto& node : dfg.nodes()) {
        if (node.type == netlist::NodeType::kPrimaryInput) {
          inputs[node.name] = rng.next_bool();
        }
      }
      const netlist::ValueMap expected = netlist::evaluate(dfg, inputs);
      const netlist::ValueMap actual = simulator_->eval(c, inputs);
      for (const auto& [name, value] : expected) {
        const auto it = actual.find(name);
        if (it == actual.end() || it->second != value) {
          ++mismatches;
        }
      }
    }
  }
  return mismatches;
}

config::BitstreamStats MCFPGA::bitstream_stats() const {
  return config::compute_stats(design_.full_bitstream);
}

area::ComparisonReport MCFPGA::area_report(
    const area::ComparisonOptions& options) const {
  // Group the routing switches into their owning physical blocks; decoder
  // sharing (when enabled) happens within a block, never across blocks.
  // Rows name their switch by id, so grouping copies no names, and a
  // block's switches are mostly consecutive ids: one map probe per run.
  using BlockKey = std::tuple<arch::SwitchOwner, std::int32_t, std::int32_t>;
  const arch::RoutingGraph& graph = *design_.graph;
  std::map<BlockKey, config::Bitstream> blocks;
  config::Bitstream* block = nullptr;
  BlockKey current;
  for (std::size_t s = 0; s < graph.num_switches(); ++s) {
    const auto& sw = graph.rr_switch(static_cast<arch::SwitchId>(s));
    const BlockKey key(sw.owner, sw.x, sw.y);
    if (block == nullptr || key != current) {
      block = &blocks.try_emplace(key, design_.fabric.num_contexts)
                   .first->second;
      current = key;
    }
    block->add_switch_row(s, design_.routing.switch_patterns[s]);
  }
  std::vector<config::Bitstream> block_list;
  block_list.reserve(blocks.size());
  for (auto& [key, bs] : blocks) {
    block_list.push_back(std::move(bs));
  }
  const area::AreaModel model;
  return model.compare_fabric(design_.fabric, block_list, options);
}

}  // namespace mcfpga::core
