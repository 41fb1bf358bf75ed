// Top-level device object: compiles a multi-context netlist onto the
// fabric, programs a fabric simulator over the compile's own routing graph
// (CompiledDesign::graph, never rebuilt), and exposes the verification and
// evaluation entry points the benches and examples drive.
#pragma once

#include <cstdint>
#include <memory>

#include "area/area_model.hpp"
#include "config/stats.hpp"
#include "core/flow.hpp"
#include "sim/simulator.hpp"

namespace mcfpga::core {

class MCFPGA {
 public:
  /// Compiles `netlist` onto a fabric derived from `spec` (auto-grown when
  /// options.auto_size) and programs the simulator.
  MCFPGA(const netlist::MultiContextNetlist& netlist,
         const arch::FabricSpec& spec, const CompileOptions& options = {});

  const CompiledDesign& design() const { return design_; }
  const arch::RoutingGraph& graph() const { return *design_.graph; }
  const sim::FabricSimulator& simulator() const { return *simulator_; }

  /// Evaluates one context on the programmed fabric.
  netlist::ValueMap run(std::size_t context,
                        const netlist::ValueMap& inputs) const;

  /// Cross-checks the fabric simulator against the netlist reference
  /// evaluator on `vectors` random input vectors per context.  Returns the
  /// number of mismatching (context, vector, output) triples (0 = proven
  /// consistent for the sampled vectors).
  std::size_t verify(std::size_t vectors = 32, std::uint64_t seed = 7) const;

  /// Redundancy/regularity statistics of the full fabric bitstream.
  config::BitstreamStats bitstream_stats() const;

  /// Sec. 5 comparison on THIS design's fabric and bitstream: groups the
  /// routing switches by owning block, runs decoder synthesis per block,
  /// and prices both implementations.
  area::ComparisonReport area_report(
      const area::ComparisonOptions& options = {}) const;

 private:
  CompiledDesign design_;
  std::unique_ptr<sim::FabricSimulator> simulator_;
};

}  // namespace mcfpga::core
