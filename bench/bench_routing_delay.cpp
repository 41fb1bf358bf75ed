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
// compile — and compares the two cross-context negotiation schedulers
// (whole-context rounds vs the net-interleaved merged queue) on the same
// workload: total maze traffic summed over every round/wave, with a
// >= 1.3x expansion reduction gate at equal-or-better conflicts and
// critical switches.
//
// Pass --smoke for a reduced CI-sized run.  Every measurement also emits
// one BENCH_JSON machine-readable line (see bench_json.hpp).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>

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

  // --- Cross-context negotiation: round-based vs net-interleaved -----------
  // Identical congested multi-context workload, identical options except
  // cross_context_mode.  The honest cost of a negotiation is the maze
  // traffic of EVERY round/wave it ran, not just the kept one, so both
  // sides sum NegotiationRoundStats over all entries.  The gate enforces
  // the interleaved scheduler's contract: same or fewer cross-context
  // conflicts, same or better worst critical switches, and — outside
  // --smoke — at least 1.3x fewer total maze expansions than the
  // round-based negotiator spends on the same problem.
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

    struct NegotiationRun {
      double ms = 0.0;
      std::size_t expansions = 0;  // summed over every round/wave
      std::size_t pushes = 0;
      route::RouteResult result;
    };
    const auto run_mode = [&](route::CrossContextMode mode) {
      route::RouterOptions opts;
      opts.num_threads = 1;
      opts.cross_context_mode = mode;
      const route::Router router(g, opts);
      NegotiationRun run;
      const clock::time_point start = clock::now();
      run.result = router.route(nets);
      run.ms =
          std::chrono::duration<double>(clock::now() - start).count() * 1e3;
      for (const auto& s : run.result.negotiation_stats) {
        run.expansions += s.nodes_expanded;
        run.pushes += s.heap_pushes;
      }
      return run;
    };

    const NegotiationRun rounds = run_mode(route::CrossContextMode::kNegotiated);
    const NegotiationRun inter = run_mode(route::CrossContextMode::kInterleaved);

    Table nt({"scheduler", "route (ms)", "rounds/waves", "total expansions",
              "total pushes", "conflicts", "worst switches"});
    for (const auto* r : {&rounds, &inter}) {
      const bool is_inter = r == &inter;
      nt.add_row({is_inter ? "net-interleaved queue" : "whole-context rounds",
                  fmt_double(r->ms, 2),
                  std::to_string(r->result.negotiation_stats.size()),
                  fmt_count(r->expansions), fmt_count(r->pushes),
                  std::to_string(total_of(
                      r->result,
                      &route::ContextRouteSummary::cross_context_conflicts)),
                  std::to_string(worst_switches(r->result))});
      bench::json_line(
          is_inter ? "routing_negotiation_interleaved"
                   : "routing_negotiation_rounds",
          4 * nets_per_context, r->ms, static_cast<double>(r->expansions),
          "\"heap_pushes\":" + std::to_string(r->pushes) +
              ",\"entries\":" +
              std::to_string(r->result.negotiation_stats.size()) +
              ",\"conflicts\":" +
              std::to_string(total_of(
                  r->result,
                  &route::ContextRouteSummary::cross_context_conflicts)) +
              ",\"worst_switches\":" +
              std::to_string(worst_switches(r->result)));
    }
    // Per-wave trace of the interleaved run: how fast the dirty set drains.
    for (const auto& s : inter.result.negotiation_stats) {
      bench::json_line(
          "routing_negotiation_wave", s.round, s.seconds * 1e3,
          static_cast<double>(s.nodes_expanded),
          "\"rerouted\":" + std::to_string(s.nets_rerouted) +
              ",\"requeued\":" + std::to_string(s.nets_requeued) +
              ",\"conflicts\":" + std::to_string(s.conflicts) +
              ",\"kept\":" + (s.kept ? std::string("true")
                                     : std::string("false")));
    }
    std::cout << "\ncross-context negotiation comparison (serial, congested "
                 "random workload):\n";
    nt.print(std::cout);
    const double reduction =
        inter.expansions > 0
            ? static_cast<double>(rounds.expansions) /
                  static_cast<double>(inter.expansions)
            : 0.0;
    std::cout << "maze-expansion reduction (rounds / interleaved): "
              << fmt_double(reduction, 2) << "x\n";
    bench::json_line("routing_negotiation_reduction", 4 * nets_per_context,
                     0.0, reduction);

    if (!rounds.result.success || !inter.result.success) {
      std::cout << "FAIL: negotiation comparison workload did not converge\n";
      return 1;
    }
    const std::size_t cf_rounds = total_of(
        rounds.result, &route::ContextRouteSummary::cross_context_conflicts);
    const std::size_t cf_inter = total_of(
        inter.result, &route::ContextRouteSummary::cross_context_conflicts);
    const std::size_t ws_rounds = worst_switches(rounds.result);
    const std::size_t ws_inter = worst_switches(inter.result);
    if (cf_inter > cf_rounds) {
      std::cout << "FAIL: interleaved scheduler left more conflicts ("
                << cf_inter << " vs " << cf_rounds << ")\n";
      return 1;
    }
    if (ws_inter > ws_rounds) {
      std::cout << "FAIL: interleaved scheduler worse on worst critical "
                   "switches ("
                << ws_inter << " vs " << ws_rounds << ")\n";
      return 1;
    }
    if (!smoke && reduction < 1.3) {
      std::cout << "FAIL: interleaved expansion reduction "
                << fmt_double(reduction, 2) << "x below the 1.3x gate\n";
      return 1;
    }
  }

  // --- Speculative parallel drain: interleave_workers scaling --------------
  // Same congested workload, kInterleaved throughout; only the drain
  // worker count varies.  The contract is absolute: every worker count
  // must produce a bit-identical routed state (FNV fingerprint over all
  // routed paths, hard FAIL on any mismatch) with identical speculation
  // hit/abort counters for every parallel count — the parallelism may
  // only buy wall-clock time.  Outside --smoke, on hardware with at
  // least 4 cores, the 4-worker wave drain must be >= 1.4x faster than
  // the sequential single-worker drain.
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

    struct ScaleRun {
      double drain_ms = 0.0;  // wave entries only; the baseline round is
                              // identical work for every worker count
      double total_ms = 0.0;
      std::uint64_t fingerprint = 0;
      std::size_t expansions = 0;
      std::size_t spec_hits = 0;
      std::size_t spec_aborts = 0;
      std::size_t rerouted = 0;
      std::size_t entries = 0;
    };
    const auto run_workers = [&](std::size_t w) {
      route::RouterOptions opts;
      opts.num_threads = 1;
      opts.cross_context_mode = route::CrossContextMode::kInterleaved;
      opts.interleave_workers = w;
      const route::Router router(g, opts);
      ScaleRun run;
      const clock::time_point start = clock::now();
      const route::RouteResult result = router.route(nets);
      run.total_ms =
          std::chrono::duration<double>(clock::now() - start).count() * 1e3;
      run.entries = result.negotiation_stats.size();
      for (std::size_t r = 0; r < result.negotiation_stats.size(); ++r) {
        const auto& s = result.negotiation_stats[r];
        run.expansions += s.nodes_expanded;
        run.spec_hits += s.spec_hits;
        run.spec_aborts += s.spec_aborts;
        run.rerouted += s.nets_rerouted;
        if (r > 0) {
          run.drain_ms += s.seconds * 1e3;
        }
      }
      // FNV-1a over every routed path: any divergence in what was
      // committed shows up here.
      std::uint64_t h = 1469598103934665603ull;
      const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
      };
      for (const auto& per_context : result.nets) {
        for (const auto& net : per_context) {
          mix(static_cast<std::uint64_t>(net.source));
          for (const auto& path : net.paths) {
            mix(static_cast<std::uint64_t>(path.sink));
            for (const auto e : path.edges) {
              mix(static_cast<std::uint64_t>(e));
            }
          }
        }
      }
      run.fingerprint = h;
      return run;
    };

    std::vector<std::size_t> worker_counts{1, 2, 4};
    if (!smoke) {
      worker_counts.push_back(8);
    }
    std::vector<ScaleRun> runs;
    Table st({"workers", "drain (ms)", "total (ms)", "spec hits",
              "spec aborts", "rerouted", "fingerprint"});
    for (const std::size_t w : worker_counts) {
      runs.push_back(run_workers(w));
      const ScaleRun& r = runs.back();
      char fp[20];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(r.fingerprint));
      st.add_row({std::to_string(w), fmt_double(r.drain_ms, 2),
                  fmt_double(r.total_ms, 2), fmt_count(r.spec_hits),
                  fmt_count(r.spec_aborts), fmt_count(r.rerouted), fp});
      bench::json_line(
          "routing_interleave_scale", w, r.drain_ms,
          static_cast<double>(r.expansions),
          "\"spec_hits\":" + std::to_string(r.spec_hits) +
              ",\"spec_aborts\":" + std::to_string(r.spec_aborts) +
              ",\"rerouted\":" + std::to_string(r.rerouted) +
              ",\"entries\":" + std::to_string(r.entries) +
              ",\"fingerprint\":\"" + fp + "\"");
    }
    std::cout << "\nspeculative drain scaling (kInterleaved, congested "
                 "random workload):\n";
    st.print(std::cout);

    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (runs[i].fingerprint != runs[0].fingerprint) {
        std::cout << "FAIL: " << worker_counts[i]
                  << "-worker drain diverged from the sequential drain\n";
        return 1;
      }
      if (runs[i].expansions != runs[0].expansions ||
          runs[i].rerouted != runs[0].rerouted) {
        std::cout << "FAIL: " << worker_counts[i]
                  << "-worker drain changed the work counters\n";
        return 1;
      }
      if (i >= 2 && (runs[i].spec_hits != runs[1].spec_hits ||
                     runs[i].spec_aborts != runs[1].spec_aborts)) {
        std::cout << "FAIL: speculation counters depend on the worker "
                     "count\n";
        return 1;
      }
    }
    if (runs[0].spec_hits != 0 || runs[0].spec_aborts != 0) {
      std::cout << "FAIL: single-worker drain speculated\n";
      return 1;
    }

    const double speedup =
        runs[2].drain_ms > 0.0 ? runs[0].drain_ms / runs[2].drain_ms : 0.0;
    std::cout << "wave-drain speedup (1 worker / 4 workers): "
              << fmt_double(speedup, 2) << "x\n";
    bench::json_line("routing_interleave_speedup", 4 * nets_per_context, 0.0,
                     0.0, "\"speedup\":" + fmt_double(speedup, 2));
    // The speedup gate needs real cores; oversubscribed speculation still
    // proves determinism above but cannot buy wall-clock time.
    if (!smoke && std::thread::hardware_concurrency() >= 4 && speedup < 1.4) {
      std::cout << "FAIL: 4-worker drain speedup " << fmt_double(speedup, 2)
                << "x below the 1.4x gate\n";
      return 1;
    }
  }
  return 0;
}
