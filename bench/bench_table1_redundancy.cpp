// E1/E2 — Regenerates paper Table 1 (redundancy and regularity in
// configuration data) and Table 2 (context-ID encoding), then measures the
// same statistics on realistic synthetic bitstreams and on a fully
// compiled design's bitstream.
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "config/context_id.hpp"
#include "config/stats.hpp"
#include "core/mcfpga.hpp"
#include "workload/bitstream_gen.hpp"
#include "workload/circuits.hpp"

using namespace mcfpga;

int main() {
  std::cout << "=== E1/E2: Table 1 & Table 2 reproduction ===\n\n";

  // --- Table 2: context-ID encoding ---------------------------------------
  {
    Table t({"", "Context 0", "Context 1", "Context 2", "Context 3"});
    for (std::size_t bit = 0; bit < 2; ++bit) {
      std::vector<std::string> row = {"S" + std::to_string(bit)};
      for (std::size_t c = 0; c < 4; ++c) {
        row.push_back(config::id_bit_value(c, bit) ? "1" : "0");
      }
      t.add_row(row);
    }
    std::cout << "Table 2 — contexts vs context-ID bits:\n";
    t.print(std::cout);
    std::cout << "\n";
  }

  // --- Table 1: the paper's example rows ----------------------------------
  {
    const auto bs = config::paper_table1_example();
    Table t({"switch", "C3", "C2", "C1", "C0", "classification"});
    for (std::size_t r = 0; r < bs.num_rows(); ++r) {
      const auto& row = bs.row(r);
      const auto info = config::classify(row.pattern);
      t.add_row({std::string(bs.name(r)), row.pattern.value_in(3) ? "1" : "0",
                 row.pattern.value_in(2) ? "1" : "0",
                 row.pattern.value_in(1) ? "1" : "0",
                 row.pattern.value_in(0) ? "1" : "0", info.describe()});
    }
    std::cout << "Table 1 — example configuration data (G1..G9 subset):\n";
    t.print(std::cout);
    config::print_stats(std::cout, config::compute_stats(bs),
                        "Table 1 statistics");
    std::cout << "\n";
  }

  // --- The same statistics at the paper's assumed operating point ----------
  for (const double rate : {0.03, 0.05}) {
    workload::BitstreamGenParams params;
    params.rows = 50000;
    params.num_contexts = 4;
    params.change_rate = rate;
    params.seed = 2005;
    const auto bs = workload::generate_bitstream(params);
    config::print_stats(
        std::cout, config::compute_stats(bs),
        "synthetic fabric bitstream, change rate " + fmt_percent(rate, 0) +
            " (paper cites <3% measured, assumes 5%)");
    std::cout << "\n";
  }

  // --- Measured on a real compiled design ----------------------------------
  {
    arch::FabricSpec spec;
    spec.width = 4;
    spec.height = 4;
    const core::MCFPGA chip(workload::pipeline_workload(4, 6), spec);
    config::print_stats(std::cout, chip.bitstream_stats(),
                        "compiled 4-context pipeline workload (full fabric)");
  }
  return 0;
}
