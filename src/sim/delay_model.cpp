#include "sim/delay_model.hpp"

#include <cmath>

#include "common/error.hpp"
#include "timing/timing_graph.hpp"

namespace mcfpga::sim {

void DelayParams::validate() const {
  MCFPGA_REQUIRE(std::isfinite(se_delay) && se_delay > 0.0,
                 "se_delay must be finite and positive");
  MCFPGA_REQUIRE(std::isfinite(lut_delay) && lut_delay >= 0.0,
                 "lut_delay must be finite and non-negative");
}

TimingReport analyze_timing(std::size_t num_nodes,
                            const std::vector<TimingArc>& arcs,
                            const DelayParams& params) {
  std::vector<timing::Arc> t_arcs;
  t_arcs.reserve(arcs.size());
  for (const auto& a : arcs) {
    MCFPGA_REQUIRE(a.from < num_nodes && a.to < num_nodes,
                   "timing arc endpoint out of range");
    t_arcs.push_back(timing::Arc{
        static_cast<std::uint32_t>(a.from), static_cast<std::uint32_t>(a.to),
        params.se_delay * static_cast<double>(a.switches) +
            (a.to_is_lut ? params.lut_delay : 0.0)});
  }
  timing::TimingGraph graph(num_nodes, std::move(t_arcs));
  graph.analyze();

  TimingReport report;
  report.critical_path = graph.critical_path();
  report.arrival.resize(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    report.arrival[n] = graph.arrival(n);
  }
  report.critical_nodes = graph.critical_nodes();
  return report;
}

}  // namespace mcfpga::sim
