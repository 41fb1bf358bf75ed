// Redundancy report: compile a workload, then break the full fabric
// bitstream down the way the paper's Table 1 does — per resource kind,
// pattern class, and identical-row grouping — and show what the RCM
// decoder synthesis makes of it.
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "config/stats.hpp"
#include "core/mcfpga.hpp"
#include "rcm/context_decoder.hpp"
#include "workload/circuits.hpp"

using namespace mcfpga;

int main() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  const core::MCFPGA chip(workload::pipeline_workload(4, 6), spec);
  const auto& bs = chip.design().full_bitstream;

  std::cout << "=== redundancy report: compiled pipeline workload ===\n\n";
  config::print_stats(std::cout, config::compute_stats(bs),
                      "full fabric bitstream");

  // Per resource kind.
  std::cout << "\nper resource kind:\n";
  Table t({"kind", "rows", "constant", "single-bit", "complex"});
  for (const auto kind : {config::ResourceKind::kRoutingSwitch,
                          config::ResourceKind::kLutBit,
                          config::ResourceKind::kControlBit}) {
    config::Bitstream sub(bs.num_contexts());
    for (std::size_t r = 0; r < bs.num_rows(); ++r) {
      if (bs.row(r).kind == kind) {
        sub.append_rows(bs, r, 1);
      }
    }
    if (sub.num_rows() == 0) {
      continue;
    }
    const auto stats = config::compute_stats(sub);
    t.add_row({config::to_string(kind), fmt_count(stats.num_rows),
               fmt_percent(stats.constant_fraction()),
               fmt_percent(stats.single_bit_fraction()),
               fmt_percent(stats.complex_fraction())});
  }
  t.print(std::cout);

  // What the RCM makes of the routing switches.
  config::Bitstream routing(bs.num_contexts());
  for (std::size_t r = 0; r < bs.num_rows(); ++r) {
    if (bs.row(r).kind == config::ResourceKind::kRoutingSwitch) {
      routing.append_rows(bs, r, 1);
    }
  }
  const rcm::ContextDecoder flat(routing,
                                 {.share_identical_patterns = false});
  const rcm::ContextDecoder shared(routing,
                                   {.share_identical_patterns = true});
  std::cout << "\nRCM realization of the " << fmt_count(routing.num_rows())
            << " routing switches:\n";
  Table r({"configuration", "SE networks", "total SEs", "taps",
           "SEs per switch"});
  r.add_row({"one decoder per switch", fmt_count(flat.num_networks()),
             fmt_count(flat.total_se_count()), "0",
             fmt_double(static_cast<double>(flat.total_se_count()) /
                            static_cast<double>(routing.num_rows()),
                        2)});
  r.add_row({"shared within fabric", fmt_count(shared.num_networks()),
             fmt_count(shared.total_se_count()),
             fmt_count(shared.shared_row_taps()),
             fmt_double(static_cast<double>(shared.total_se_count()) /
                            static_cast<double>(routing.num_rows()),
                        2)});
  r.print(std::cout);

  std::cout << "\nconventional cost: 4 memory bits + 4:1 mux per switch, "
               "unconditionally.\n";
  return 0;
}
