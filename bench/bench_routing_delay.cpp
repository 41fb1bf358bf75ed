// E5 — Figs. 10-11: routing delay with and without double-length lines.
// A signal crossing L cells serially passes ~L switch-block SEs; on
// double-length lines it passes ~L/2 diamond switches.  The bench routes
// straight-line connections of growing length and a full compiled design
// under both configurations, then times serial vs parallel per-context
// routing on a multi-context workload.
//
// The bench also times the router's maze expansion (Dial's calendar
// queue) on a congested random multi-context workload — wall clock,
// queue-traffic counters, QoR, and the same engine under a timing-driven
// compile.
//
// Pass --smoke for a reduced CI-sized run.  Every measurement also emits
// one BENCH_JSON machine-readable line (see bench_json.hpp).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "arch/routing_graph.hpp"
#include "bench_json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/mcfpga.hpp"
#include "route/router.hpp"
#include "workload/circuits.hpp"

using namespace mcfpga;

namespace {

route::RoutedPath route_straight(std::size_t length, bool prefer_dl) {
  arch::FabricSpec spec;
  spec.width = length + 1;
  spec.height = 1;
  spec.channel_width = 4;
  spec.double_length_tracks = 2;
  const arch::RoutingGraph g(spec);
  route::RouterOptions opts;
  opts.prefer_double_length = prefer_dl;
  const route::Router router(g, opts);
  std::vector<std::vector<route::RouteNet>> nets(4);
  nets[0].push_back(route::RouteNet{
      "straight", g.out_pin(0, 0, 0), {g.in_pin(length, 0, 0)}});
  const auto result = router.route(nets);
  return result.nets[0][0].paths[0];
}

/// Deterministic congested multi-context routing problem, straight on the
/// routing graph: per context, `nets_per_context` nets with distinct
/// source pins and 1-3 distinct sink pins each (PathFinder's exclusivity
/// rules make duplicate endpoints unroutable, so endpoints are sampled
/// without replacement).
std::vector<std::vector<route::RouteNet>> random_route_problem(
    const arch::RoutingGraph& g, std::size_t num_contexts,
    std::size_t nets_per_context, std::uint64_t seed) {
  const arch::FabricSpec& spec = g.spec();
  std::uint64_t state = seed;
  const auto next = [&]() {  // splitmix64
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<std::vector<route::RouteNet>> nets(num_contexts);
  for (std::size_t c = 0; c < num_contexts; ++c) {
    // Endpoint pools, shuffled once per context (Fisher-Yates).
    std::vector<arch::NodeId> sources;
    std::vector<arch::NodeId> sinks;
    for (std::size_t y = 0; y < spec.height; ++y) {
      for (std::size_t x = 0; x < spec.width; ++x) {
        for (std::size_t p = 0; p < spec.logic_block.num_outputs; ++p) {
          sources.push_back(g.out_pin(x, y, p));
        }
        for (std::size_t p = 0; p < spec.logic_block.base_inputs; ++p) {
          sinks.push_back(g.in_pin(x, y, p));
        }
      }
    }
    for (std::size_t i = sources.size(); i > 1; --i) {
      std::swap(sources[i - 1], sources[next() % i]);
    }
    for (std::size_t i = sinks.size(); i > 1; --i) {
      std::swap(sinks[i - 1], sinks[next() % i]);
    }
    std::size_t sink_at = 0;
    for (std::size_t i = 0; i < nets_per_context; ++i) {
      route::RouteNet net;
      net.name = "rnd_c" + std::to_string(c) + "_n" + std::to_string(i);
      net.source = sources[i];
      const std::size_t fanout = 1 + next() % 3;
      for (std::size_t s = 0; s < fanout && sink_at < sinks.size(); ++s) {
        net.sinks.push_back(sinks[sink_at++]);
      }
      nets[c].push_back(std::move(net));
    }
  }
  return nets;
}

/// Sums one counter over a RouteResult's context summaries.
std::size_t total_of(const route::RouteResult& r,
                     std::size_t route::ContextRouteSummary::* member) {
  std::size_t total = 0;
  for (const auto& s : r.context_summary) {
    total += s.*member;
  }
  return total;
}

std::size_t worst_switches(const route::RouteResult& r) {
  std::size_t worst = 0;
  for (std::size_t c = 0; c < r.nets.size(); ++c) {
    worst = std::max(worst, r.critical_switches(c));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke |= std::strcmp(argv[i], "--smoke") == 0;
  }
  std::cout << "=== E5: double-length lines vs serial SEs (Figs. 10-11) "
               "===\n\n";

  Table t({"distance (cells)", "switches (single-length only)",
           "switches (with double-length)", "diamonds used", "speedup"});
  const std::vector<std::size_t> lengths =
      smoke ? std::vector<std::size_t>{2, 4, 8}
            : std::vector<std::size_t>{2, 4, 6, 8, 12, 16};
  for (const std::size_t len : lengths) {
    const auto slow = route_straight(len, false);
    const auto fast = route_straight(len, true);
    t.add_row({std::to_string(len), std::to_string(slow.switch_count()),
               std::to_string(fast.switch_count()),
               std::to_string(fast.diamond_count),
               fmt_double(static_cast<double>(slow.switch_count()) /
                              static_cast<double>(fast.switch_count()),
                          2) +
                   "x"});
    bench::json_line("routing_delay_straight_single", len, 0.0,
                     static_cast<double>(slow.switch_count()));
    bench::json_line("routing_delay_straight_double", len, 0.0,
                     static_cast<double>(fast.switch_count()),
                     R"("diamonds":)" + std::to_string(fast.diamond_count));
  }
  std::cout << "straight-line route, SE crossings (delay in SE units):\n";
  t.print(std::cout);
  std::cout << "expected shape: the double-length configuration crosses\n"
               "roughly half the switches at long distances (Fig. 10).\n\n";

  // Full-design critical path with and without the fast lines.
  const std::size_t stages = smoke ? 6 : 8;
  Table d({"configuration", "critical path ctx0", "ctx1", "ctx2", "ctx3"});
  for (const bool dl : {false, true}) {
    arch::FabricSpec spec;
    spec.width = 5;
    spec.height = 5;
    spec.channel_width = 8;
    spec.double_length_tracks = dl ? 4 : 0;
    core::CompileOptions options;
    options.router.prefer_double_length = dl;
    const core::MCFPGA chip(workload::pipeline_workload(4, stages), spec,
                            options);
    std::vector<std::string> row = {dl ? "with double-length lines"
                                       : "single-length only"};
    double worst = 0.0;
    for (const auto& s : chip.design().context_stats) {
      row.push_back(fmt_double(s.critical_path, 1));
      worst = std::max(worst, s.critical_path);
    }
    d.add_row(row);
    bench::json_line(dl ? "routing_delay_e5_double" : "routing_delay_e5_single",
                     stages, 0.0, worst);
  }
  std::cout << "compiled pipeline workload, critical path (SE units):\n";
  d.print(std::cout);

  // --- Serial vs parallel per-context routing ------------------------------
  // Same nets, same graph; only the router's worker count changes.  The
  // results are bit-identical by construction, so the only difference to
  // observe is wall clock.
  {
    arch::FabricSpec spec;
    spec.width = 6;
    spec.height = 6;
    spec.channel_width = 8;
    spec.double_length_tracks = 4;
    const std::size_t depth = smoke ? 6 : 10;
    core::CompileOptions options;
    const core::MCFPGA chip(workload::pipeline_workload(4, depth), spec,
                            options);

    Table p({"router workers", "route stage (ms)"});
    double serial_ms = 0.0;
    double parallel_ms = 0.0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{0}}) {
      core::CompileOptions timed = options;
      timed.router.num_threads = workers;
      const auto design = core::compile(workload::pipeline_workload(4, depth),
                                        spec, timed);
      double route_ms = 0.0;
      for (const auto& s : design.stage_timings) {
        if (s.name == "route") {
          route_ms = s.seconds * 1e3;
        }
      }
      (workers == 1 ? serial_ms : parallel_ms) = route_ms;
      p.add_row({workers == 0 ? "auto (hardware)" : std::to_string(workers),
                 fmt_double(route_ms, 2)});
      bench::json_line(workers == 1 ? "routing_delay_route_serial"
                                    : "routing_delay_route_parallel",
                       depth, route_ms, 0.0);
    }
    std::cout << "\nserial vs parallel per-context routing (bit-identical "
                 "results):\n";
    p.print(std::cout);
    if (parallel_ms > 0.0) {
      std::cout << "routing speedup (serial / parallel): "
                << fmt_double(serial_ms / parallel_ms, 2) << "x\n";
    }
  }

  // --- Maze-expansion engine on the congested workload ----------------------
  // Serial routing, so the wall clock is the engine, not the scheduler.
  // The queue-traffic counters and QoR are deterministic for the seed;
  // scripts/bench_guard.py pins them, so an engine regression fails CI.
  {
    using clock = std::chrono::steady_clock;
    arch::FabricSpec spec;
    spec.width = smoke ? 10 : 20;
    spec.height = spec.width;
    spec.channel_width = 8;
    spec.double_length_tracks = 4;
    const arch::RoutingGraph g(spec);
    const std::size_t nets_per_context = smoke ? 60 : 200;
    const auto nets = random_route_problem(g, 4, nets_per_context, 1234);
    const std::size_t reps = smoke ? 1 : 3;

    route::RouterOptions opts;
    opts.num_threads = 1;
    const route::Router router(g, opts);
    double best_ms = 0.0;
    route::RouteResult r;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const clock::time_point start = clock::now();
      r = router.route(nets);
      const double ms =
          std::chrono::duration<double>(clock::now() - start).count() * 1e3;
      if (rep == 0 || ms < best_ms) {
        best_ms = ms;
      }
    }
    if (!r.success) {
      std::cout << "FAIL: engine workload did not converge\n";
      return 1;
    }

    const std::size_t pushes =
        total_of(r, &route::ContextRouteSummary::heap_pushes);
    const std::size_t pops =
        total_of(r, &route::ContextRouteSummary::heap_pops);
    const std::size_t stale =
        total_of(r, &route::ContextRouteSummary::stale_pops);
    const std::size_t expanded =
        total_of(r, &route::ContextRouteSummary::nodes_expanded);
    const std::size_t wirelength =
        total_of(r, &route::ContextRouteSummary::wire_nodes_used);
    Table et({"route (ms)", "pushes", "pops", "stale pops", "nodes expanded",
              "worst switches", "wirelength"});
    et.add_row({fmt_double(best_ms, 2), fmt_count(pushes), fmt_count(pops),
                fmt_count(stale), fmt_count(expanded),
                std::to_string(worst_switches(r)), fmt_count(wirelength)});
    bench::json_line("routing_engine", 4 * nets_per_context, best_ms,
                     static_cast<double>(wirelength),
                     "\"heap_pushes\":" + std::to_string(pushes) +
                         ",\"heap_pops\":" + std::to_string(pops) +
                         ",\"stale_pops\":" + std::to_string(stale) +
                         ",\"nodes_expanded\":" + std::to_string(expanded) +
                         ",\"worst_switches\":" +
                         std::to_string(worst_switches(r)));
    std::cout << "\nmaze expansion (serial, congested random workload, best "
                 "of "
              << reps << "):\n";
    et.print(std::cout);

    // The same engine under the timing-driven flow: worst context critical
    // path and wirelength of a compiled pipeline.
    arch::FabricSpec flow_spec;
    flow_spec.width = 5;
    flow_spec.height = 5;
    flow_spec.channel_width = 8;
    flow_spec.double_length_tracks = 4;
    core::CompileOptions flow_opts;
    flow_opts.placer.timing_mode = true;
    flow_opts.router.timing_mode = true;
    const auto d = core::compile(
        workload::pipeline_workload(4, smoke ? 6 : 8), flow_spec, flow_opts);
    double worst = 0.0;
    std::size_t flow_wirelength = 0;
    for (const auto& s : d.context_stats) {
      worst = std::max(worst, s.critical_path);
      flow_wirelength += s.wire_nodes_used;
    }
    std::cout << "timing-driven compile, worst critical path: "
              << fmt_double(worst, 1) << " SE, wirelength "
              << flow_wirelength << "\n";
    bench::json_line("routing_engine_flow", 4, 0.0, worst,
                     "\"wirelength\":" + std::to_string(flow_wirelength));
  }
  return 0;
}
