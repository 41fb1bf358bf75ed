// Simulated-annealing placement of clustered logic blocks onto the fabric
// grid, plus I/O-terminal-to-pad assignment.
//
// The cost function is the half-perimeter wirelength (HPWL) of every net,
// summed over contexts (a net active in several contexts counts once per
// context — multi-context routing pressure is real pressure).  Moves are
// cluster swaps / relocations and pad swaps; cluster targets are drawn
// from a move window that shrinks as acceptance falls (VPR-style range
// limiting), and the schedule is a classic geometric cooling with a fixed
// sweep budget.  Placements are deterministic for a given seed.
//
// Move evaluation is exact and incremental: a flat CSR terminal->net index
// (place/net_index.hpp) is built once per problem, and each move rescans
// only the nets incident to the moved terminals, once each, from their
// final positions.  Coordinates are integers, so deltas are exact int64s
// and the incremental trajectory is bit-identical to the O(nets x
// terminals) full-recompute baseline (testing::place_full_recompute, kept
// as the exactness oracle for benches/tests).
//
// Multi-seed restarts: num_restarts independent annealers (restart r seeds
// its RNG with seed + r) run on a worker pool, and the lowest-cost result
// wins, ties broken by the lowest restart index — so the outcome is
// deterministic for a fixed seed set regardless of thread count or timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/routing_graph.hpp"
#include "common/rng.hpp"

namespace mcfpga::place {

/// A placeable endpoint: a logic-block cluster or an I/O terminal.
struct Terminal {
  enum class Kind : std::uint8_t { kCluster, kIo };
  Kind kind = Kind::kCluster;
  std::size_t id = 0;  ///< Cluster index or I/O terminal index.

  static Terminal cluster(std::size_t id) {
    return Terminal{Kind::kCluster, id};
  }
  static Terminal io(std::size_t id) { return Terminal{Kind::kIo, id}; }
};

struct PlacementNet {
  Terminal driver;
  std::vector<Terminal> sinks;
  /// Contexts in which the net is live (its HPWL weight).
  std::size_t weight = 1;
  /// Timing criticality in [0, 1] (logic-depth or post-route STA); only
  /// consulted when PlacerOptions::timing_mode multiplies it into the
  /// net's effective HPWL weight.
  double criticality = 0.0;
};

struct PlacementProblem {
  std::size_t num_clusters = 0;
  std::size_t num_io_terminals = 0;
  std::vector<PlacementNet> nets;
};

struct PlacerOptions {
  /// Annealing seed.  kSeedFromFlow (0) lets the compile flow substitute
  /// its own seed (core::PlaceStage); place() itself treats it literally.
  static constexpr std::uint64_t kSeedFromFlow = 0;
  std::uint64_t seed = kSeedFromFlow;
  /// Annealing sweeps (each sweep = moves_per_sweep attempted moves).
  std::size_t sweeps = 64;
  std::size_t moves_per_sweep = 0;  ///< 0 -> 16 * (clusters + ios)
  double initial_temperature_factor = 0.1;  ///< T0 = factor * initial cost
  double cooling = 0.9;
  /// Independent annealing restarts; restart r uses seed + r, best cost
  /// wins (ties -> lowest restart index).
  std::size_t num_restarts = 1;
  /// Worker threads for restarts.  0 = one per hardware thread, capped at
  /// num_restarts; results are identical regardless of the value.
  std::size_t num_threads = 0;
  /// Timing-driven cost: each net's HPWL weight becomes
  ///   weight * (1 + round(criticality * timing_weight)),
  /// an integer, so the incremental evaluator stays exact and trajectories
  /// stay deterministic.  Off = criticalities ignored, bit-identical to
  /// the pure-HPWL placer.
  bool timing_mode = false;
  /// Strength of the criticality bump (a fully critical net weighs
  /// (1 + timing_weight)x its wirelength weight).  Must be finite and
  /// below 2^62.
  double timing_weight = 4.0;

  /// Throws InvalidArgument on out-of-range values (zero sweep/restart
  /// budget, non-positive cooling, negative or non-finite weights and
  /// temperatures, ...).  Called by place().
  void validate() const;
};

/// The annealer's per-net weight: the context count, criticality-bumped in
/// timing mode.  Exposed so placement_cost() and the NetIndex agree.
/// Throws InvalidArgument when the weight does not fit an int64 (a huge
/// timing_weight times a multi-context net weight).
std::int64_t effective_net_weight(const PlacementNet& net,
                                  const PlacerOptions& options);

/// Outcome of one annealing restart (all restarts are reported, not just
/// the winner, so callers can attribute time and quality per seed).
struct RestartStat {
  std::uint64_t seed = 0;
  double cost = 0.0;
  double seconds = 0.0;  ///< Wall clock of this restart's anneal.
  /// Moves evaluated by the anneal (a draw that leaves the terminal in
  /// place is not proposed), and those of them it kept.
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_accepted = 0;
};

struct Placement {
  /// cluster -> cell coordinates.
  std::vector<std::pair<std::size_t, std::size_t>> cluster_pos;
  /// io terminal -> pad index (into RoutingGraph::pad()).
  std::vector<std::size_t> io_pads;
  double cost = 0.0;

  /// One entry per restart, in restart order (deterministic apart from
  /// the wall-clock seconds).
  std::vector<RestartStat> restart_stats;
  std::size_t winning_restart = 0;
};

/// Places the problem onto `graph`'s fabric.  Throws FlowError when the
/// fabric has too few cells or pads.
///
/// `initial` (may be null) warm-starts every restart's anneal from the
/// given placement instead of the scan-order seed — the timing-closure
/// loop's re-place, typically paired with a reduced temperature so the
/// refine run perturbs rather than scrambles.  Its cluster_pos/io_pads
/// must match the problem (InvalidArgument otherwise).
Placement place(const PlacementProblem& problem,
                const arch::RoutingGraph& graph, const PlacerOptions& options,
                const Placement* initial = nullptr);

/// Cost of an explicit placement (exposed for tests and the placer itself).
/// `options` supplies the timing-mode net weighting; the default matches
/// the pure-HPWL cost.
double placement_cost(const PlacementProblem& problem,
                      const arch::RoutingGraph& graph,
                      const Placement& placement,
                      const PlacerOptions& options = {});

namespace testing {

/// place() with every move priced by a full O(nets x terminals) recompute
/// instead of the incremental evaluator.  Same RNG draws and exact integer
/// deltas, so the result is bit-identical to place(): the exactness
/// oracle and speed baseline for tests and benches, not a flow option.
Placement place_full_recompute(const PlacementProblem& problem,
                               const arch::RoutingGraph& graph,
                               const PlacerOptions& options,
                               const Placement* initial = nullptr);

}  // namespace testing

}  // namespace mcfpga::place
