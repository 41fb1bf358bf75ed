// Placer move-throughput bench: full-recompute vs incremental delta
// evaluation vs multi-seed parallel restarts, over growing cluster/net
// counts.  Also a correctness gate: for identical seeds the two
// evaluation modes must finish at identical cost/positions, and a restart
// set must reproduce itself exactly when re-run.
//
// Pass --smoke for a tiny instance (CI exercises the code paths without
// burning bench time).  Every measurement also prints one BENCH_JSON line.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "arch/routing_graph.hpp"
#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "place/placer.hpp"

using namespace mcfpga;

namespace {

place::Terminal random_terminal(Rng& rng, const place::PlacementProblem& p) {
  const std::size_t total = p.num_clusters + p.num_io_terminals;
  const std::size_t pick = static_cast<std::size_t>(rng.next_below(total));
  return pick < p.num_clusters
             ? place::Terminal::cluster(pick)
             : place::Terminal::io(pick - p.num_clusters);
}

place::PlacementProblem make_problem(std::size_t clusters, std::size_t ios,
                                     std::size_t nets, std::uint64_t seed) {
  Rng rng(seed);
  place::PlacementProblem prob;
  prob.num_clusters = clusters;
  prob.num_io_terminals = ios;
  for (std::size_t n = 0; n < nets; ++n) {
    place::PlacementNet net;
    net.driver = random_terminal(rng, prob);
    const std::size_t sinks = 1 + static_cast<std::size_t>(rng.next_below(4));
    for (std::size_t s = 0; s < sinks; ++s) {
      net.sinks.push_back(random_terminal(rng, prob));
    }
    net.weight = 1 + static_cast<std::size_t>(rng.next_below(3));
    prob.nets.push_back(std::move(net));
  }
  return prob;
}

arch::FabricSpec spec_n(std::size_t n) {
  arch::FabricSpec spec;
  spec.width = n;
  spec.height = n;
  spec.channel_width = 4;
  spec.double_length_tracks = 2;
  return spec;
}

struct Run {
  double wall_ms = 0.0;
  place::Placement placement;
};

Run timed_place(const place::PlacementProblem& prob,
                const arch::RoutingGraph& graph,
                const place::PlacerOptions& opts,
                bool full_recompute = false) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  Run run;
  run.placement =
      full_recompute ? place::testing::place_full_recompute(prob, graph, opts)
                     : place::place(prob, graph, opts);
  const std::chrono::duration<double, std::milli> elapsed =
      clock::now() - start;
  run.wall_ms = elapsed.count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    smoke |= std::strcmp(argv[i], "--smoke") == 0;
  }
  std::cout << "=== placer move throughput: full recompute vs incremental "
               "delta vs parallel restarts ===\n\n";

  struct Shape {
    std::size_t grid, clusters, ios;
  };
  std::vector<Shape> shapes;
  if (smoke) {
    shapes.push_back({5, 16, 8});
  } else {
    shapes.push_back({9, 64, 24});
    shapes.push_back({12, 128, 36});
    shapes.push_back({17, 256, 48});
  }

  int rc = 0;
  Table t({"clusters", "nets", "mode", "wall (ms)", "moves/sec", "cost",
           "speedup"});
  for (const Shape& s : shapes) {
    const std::size_t nets = 2 * s.clusters;
    const place::PlacementProblem prob =
        make_problem(s.clusters, s.ios, nets, 1234 + s.clusters);
    const arch::RoutingGraph graph(spec_n(s.grid));

    place::PlacerOptions opts;
    opts.seed = 42;
    opts.sweeps = smoke ? 8 : 12;
    const std::size_t moves =
        opts.sweeps * 16 * (prob.num_clusters + prob.num_io_terminals + 1);

    const Run full = timed_place(prob, graph, opts, /*full_recompute=*/true);
    const Run inc = timed_place(prob, graph, opts);
    opts.num_restarts = 4;
    const Run restarts = timed_place(prob, graph, opts);
    const Run restarts_again = timed_place(prob, graph, opts);
    opts.num_restarts = 1;

    // Correctness gates: identical seeds -> identical results in this run.
    if (full.placement.cost != inc.placement.cost ||
        full.placement.cluster_pos != inc.placement.cluster_pos ||
        full.placement.io_pads != inc.placement.io_pads) {
      std::cout << "FAIL: incremental diverged from full recompute at "
                << s.clusters << " clusters\n";
      rc = 1;
    }
    if (restarts.placement.cost != restarts_again.placement.cost ||
        restarts.placement.cluster_pos !=
            restarts_again.placement.cluster_pos ||
        restarts.placement.winning_restart !=
            restarts_again.placement.winning_restart) {
      std::cout << "FAIL: restart set not deterministic at " << s.clusters
                << " clusters\n";
      rc = 1;
    }
    if (restarts.placement.cost > inc.placement.cost) {
      std::cout << "FAIL: best-of-4 restarts worse than its own restart 0 at "
                << s.clusters << " clusters\n";
      rc = 1;
    }

    const auto moves_per_sec = [&](const Run& r, std::size_t total_moves) {
      return static_cast<double>(total_moves) / (r.wall_ms / 1e3);
    };
    const auto add = [&](const std::string& mode, const Run& r,
                         std::size_t total_moves, double speedup) {
      t.add_row({fmt_count(s.clusters), fmt_count(nets), mode,
                 fmt_double(r.wall_ms, 2),
                 fmt_count(static_cast<std::uint64_t>(
                     moves_per_sec(r, total_moves))),
                 fmt_double(r.placement.cost, 0),
                 speedup > 0 ? fmt_double(speedup, 1) + "x" : "-"});
      bench::json_line(
          "placer_" + mode, s.clusters, r.wall_ms, r.placement.cost,
          "\"nets\":" + std::to_string(nets) + ",\"moves_per_sec\":" +
              fmt_double(moves_per_sec(r, total_moves), 0));
    };
    add("full", full, moves, 0.0);
    add("incremental", inc, moves, full.wall_ms / inc.wall_ms);
    add("restarts4", restarts, 4 * moves,
        4.0 * full.wall_ms / restarts.wall_ms);

    if (!smoke && s.clusters >= 256 && full.wall_ms < 10.0 * inc.wall_ms) {
      std::cout << "FAIL: incremental speedup below 10x at " << s.clusters
                << " clusters (" << fmt_double(full.wall_ms / inc.wall_ms, 1)
                << "x)\n";
      rc = 1;
    }
  }
  t.print(std::cout);
  std::cout << "\nexpected: incremental >= 10x the full-recompute "
               "move throughput at 256 clusters; identical cost per seed; "
               "restarts deterministic.\n";
  return rc;
}
