// End-to-end benchmark of the mcfpga CAD flow.
//
//   perfbench --workload <cold_sweep|edit_session|closure> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Each workload is a closed loop with one client: the next compile is
// issued only after the previous one returned.  Router and placer workers
// are fixed at min(4, hardware threads).  Inputs are generated from
// --seed only; the flow receives nothing but the generated netlists.
//
//   cold_sweep    a corpus of distinct designs, each compiled cold through
//                 MCFPGA (core::compile + device build) with the
//                 timing-driven placer and router, then priced with
//                 MCFPGA::area_report.  Every stage does its full work and
//                 no cache exists.
//   edit_session  seeded base designs, each followed by alternating
//                 retable/rewire edits through
//                 CompileService::compile_incremental; after every edit a
//                 re-open (CompileService::compile of the edited netlist)
//                 reads the stage cache.
//   closure       a smaller corpus compiled with closure_iterations = 4 and
//                 the criticality-exponent ramp: STA runs repeatedly and
//                 place/route run warm-started.
//
// --trace 0 measures the end-to-end metrics with no spans recorded: passes
// over the workload's fixed inputs until --seconds have passed, each
// operation keeping its fastest pass.  --trace 1 makes one pass driving
// each layer through its public entry points with a span around every
// call (stage-by-stage compiles, a StageObserver on CompileService calls),
// checks that every traced result is byte-identical to an untraced one,
// and reports the per-layer metrics.  Every result is checked against an
// independent functional oracle (oracle.hpp) in both modes.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/incremental.hpp"
#include "common/rng.hpp"
#include "config/stats.hpp"
#include "core/closure.hpp"
#include "core/mcfpga.hpp"
#include "core/stages.hpp"
#include "oracle.hpp"
#include "trace.hpp"
#include "workload/circuits.hpp"
#include "workload/edits.hpp"
#include "workload/random_dfg.hpp"

namespace {

namespace mc = mcfpga;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::SpanObserver;
using perfbench::Tracer;

// --- run parameters --------------------------------------------------------

/// Set-up is repeated this many times per run and its median reported.
constexpr std::size_t kSetupReps = 5;
/// Untraced runs make at least this many passes over their inputs.
constexpr std::size_t kMinPasses = 2;
/// Distinct designs in the cold_sweep and closure corpora, and edits in an
/// edit_session pass: enough for the p90 to have ten samples beyond it.
constexpr std::size_t kCorpusSize = 100;
/// edit_session: base designs, each followed by this many edits.
constexpr std::size_t kSessions = 34;
constexpr std::size_t kEditsPerSession = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <cold_sweep|edit_session|"
               "closure> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + key);
    }
    const std::string value = argv[i + 1];
    std::size_t used = 0;
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (key == "--seconds") {
        args.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && args.seconds > 0.0;
      } else if (key == "--trace") {
        have_trace = value == "0" || value == "1";
        args.trace = value == "1";
      } else if (key == "--trace-file") {
        args.trace_file = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload != "cold_sweep" && args.workload != "edit_session" &&
      args.workload != "closure") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  return args;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64 of (seed, index): independent per-item generator seeds.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const double v : values) {
    if (v > 0.0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- generated designs -----------------------------------------------------

struct Design {
  std::string name;
  mc::netlist::MultiContextNetlist netlist;
  mc::arch::FabricSpec spec;
  mc::core::CompileOptions options;
};

std::size_t flow_workers() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

mc::arch::FabricSpec fabric(std::size_t contexts) {
  mc::arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;
  spec.num_contexts = contexts;
  spec.logic_block.num_contexts = contexts;
  return spec;
}

/// Timing-driven placer and router; queue and cross-context modes stay at
/// their defaults.
mc::core::CompileOptions flow_options(std::uint64_t seed) {
  mc::core::CompileOptions options;
  options.seed = seed;
  options.placer.timing_mode = true;
  options.router.timing_mode = true;
  options.placer.num_threads = flow_workers();
  options.router.num_threads = flow_workers();
  return options;
}

Design random_design(std::uint64_t seed, std::size_t contexts,
                     std::size_t nodes, double share) {
  mc::workload::RandomMultiContextParams params;
  params.base.num_inputs = nodes <= 24 ? 8 : 10;
  params.base.num_nodes = nodes;
  params.base.max_arity = 4;
  params.base.seed = seed;
  params.num_contexts = contexts;
  params.share_fraction = share;
  std::ostringstream name;
  name << "random(" << nodes << "n," << contexts << "ctx,"
       << static_cast<int>(share * 100) << "%sh)";
  return {name.str(), mc::workload::random_multi_context(params),
          fabric(contexts), flow_options(mix(seed, 1))};
}

Design pipeline_design(std::uint64_t seed, std::size_t contexts,
                       std::size_t bits) {
  return {"pipeline(" + std::to_string(contexts) + "," +
              std::to_string(bits) + ")",
          mc::workload::pipeline_workload(contexts, bits), fabric(contexts),
          flow_options(seed)};
}

/// Four unrelated kernels, one per context, sized and ordered by the seed.
Design heterogeneous_design(std::uint64_t seed) {
  mc::Rng rng(seed);
  std::vector<mc::netlist::Dfg> kernels;
  kernels.push_back(mc::workload::ripple_carry_adder(2 + rng.next_below(3)));
  kernels.push_back(mc::workload::comparator(4 + rng.next_below(3)));
  kernels.push_back(mc::workload::parity_tree(6 + rng.next_below(5)));
  kernels.push_back(mc::workload::crc_step(4 + rng.next_below(3),
                                           1 + rng.next_below(15)));
  for (std::size_t i = kernels.size(); i > 1; --i) {
    std::swap(kernels[i - 1], kernels[rng.next_below(i)]);
  }
  mc::netlist::MultiContextNetlist netlist(4);
  for (std::size_t c = 0; c < 4; ++c) {
    netlist.context(c) = std::move(kernels[c]);
  }
  return {"heterogeneous", std::move(netlist), fabric(4),
          flow_options(mix(seed, 2))};
}

/// Shape ranges of a corpus ladder.
struct Ladder {
  std::size_t min_nodes = 0;   ///< 4-context random designs: nodes per
  std::size_t max_nodes = 0;   ///< context, spread over [min, max].
  std::size_t wide_nodes = 0;  ///< 8-context random designs: wide, wide+1.
  std::size_t min_bits = 0;    ///< Pipeline data widths.
  std::size_t max_bits = 0;
};

constexpr Ladder kColdLadder{24, 32, 24, 6, 12};
constexpr Ladder kClosureLadder{16, 20, 16, 4, 8};

/// Golden-ratio sequence: evenly spread fractions in [0, 1) over any
/// prefix of j.
double spread(std::size_t j) {
  return std::fmod(0.6180339887498949 * static_cast<double>(j + 1), 1.0);
}

/// lo + floor(u * (hi - lo + 1)): a value of [lo, hi] for u in [0, 1).
std::size_t pick(double u, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(u * static_cast<double>(hi - lo + 1));
}

/// Design `j` of a stratified ladder.  The position alone fixes the shape
/// (family, context count, size, sharing fraction), so every seed draws
/// the same mix and the seed only picks the instances.  The mix is three
/// bands: a quarter small structured designs (pipelines, heterogeneous
/// kernels), half 4-context random designs of similar size, and a quarter
/// 8-context random designs of nearly fixed size, which make the
/// compile-time tail.  The median then falls inside the middle band and
/// the p90 inside the top one, so neither depends on which sizes a seed
/// happened to draw.
Design ladder_design(std::uint64_t seed, std::size_t j, const Ladder& ladder) {
  const std::uint64_t s = mix(seed, j);
  const double u = spread(j);
  const double share = 0.3 + 0.1 * std::fmod(7.0 * u, 1.0);
  switch (j % 8) {
    case 1:
    case 5:
      return random_design(s, 8, pick(u, ladder.wide_nodes, ladder.wide_nodes + 1),
                           0.35);
    case 3:
      return pipeline_design(s, 4, pick(u, ladder.min_bits, ladder.max_bits));
    case 7:
      return (j / 8) % 2 == 0
                 ? heterogeneous_design(s)
                 : pipeline_design(s, 8, pick(u, ladder.min_bits, ladder.max_bits));
    default:
      return random_design(s, 4, pick(u, ladder.min_nodes, ladder.max_nodes),
                           share);
  }
}

/// Base design of edit session `j`: 4-context designs of similar size, so
/// a full-compile fallback costs about the same in every session.
Design edit_base(std::uint64_t seed, std::size_t j) {
  const std::uint64_t s = mix(seed, 1000 + j);
  const double u = spread(j);
  switch (j % 4) {
    case 0:
      return pipeline_design(s, 4, pick(u, 12, 16));
    case 2:
      return heterogeneous_design(s);
    default:
      return random_design(s, 4, pick(u, 20, 24),
                           0.2 + 0.3 * std::fmod(7.0 * u, 1.0));
  }
}

/// The first kCorpusSize ladder designs, in seeded order.
std::vector<Design> make_corpus(std::uint64_t seed, const Ladder& ladder) {
  std::vector<Design> corpus;
  for (std::size_t j = 0; j < kCorpusSize; ++j) {
    corpus.push_back(ladder_design(seed, j, ladder));
  }
  mc::Rng rng(mix(seed, kCorpusSize));
  for (std::size_t i = corpus.size(); i > 1; --i) {
    std::swap(corpus[i - 1], corpus[rng.next_below(i)]);
  }
  return corpus;
}

/// closure options: four iterations and the criticality-exponent ramp
/// bench_flow_end2end uses.
void use_closure(Design& d) {
  d.options.closure_iterations = 4;
  d.options.router.criticality_exponent_schedule = {1.0, 0.5, 4.0};
}

/// The fixed designs every set-up compiles once (4 and 8 contexts, the
/// same for every seed), so that lazy set-up (first-use router engines,
/// graph building) stays out of the timed loop.
std::vector<Design> warm_up_designs() {
  std::vector<Design> out;
  out.push_back(pipeline_design(1, 4, 8));
  out.push_back(random_design(2, 8, 24, 0.3));
  return out;
}

/// LUT node indices of context 0 (edit targets).
std::vector<std::size_t> lut_nodes(const mc::netlist::MultiContextNetlist& n) {
  std::vector<std::size_t> out;
  const auto& nodes = n.context(0).nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].type == mc::netlist::NodeType::kLutOp) {
      out.push_back(i);
    }
  }
  return out;
}

/// Seeded edit `e` of a session: retable and rewire alternate, starting
/// with retable.
mc::netlist::MultiContextNetlist make_edit(
    const mc::netlist::MultiContextNetlist& current,
    const std::vector<std::size_t>& targets, mc::Rng& rng, std::size_t e) {
  const std::size_t node = targets[rng.next_below(targets.size())];
  const std::uint64_t edit_seed = rng.next_u64();
  return e % 2 == 0 ? mc::workload::retable_edit(current, node, edit_seed)
                    : mc::workload::rewire_edit(current, node, edit_seed);
}

// --- measurement loop -------------------------------------------------------

/// Decides how many passes over a workload's fixed input set a run makes:
/// at least kMinPasses, then more while --seconds have not passed.  The
/// traced run makes one.
class RunClock {
 public:
  RunClock(double seconds, bool trace)
      : seconds_(seconds), trace_(trace), start_(Clock::now()) {}
  bool another_pass(std::size_t done) const {
    if (trace_) {
      return done == 0;
    }
    return done < kMinPasses ||
           ms_between(start_, Clock::now()) / 1000.0 < seconds_;
  }

 private:
  double seconds_;
  bool trace_;
  Clock::time_point start_;
};

/// Operations attempted and failed; an operation fails when it throws or
/// any check on its result fails.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool op_failed = false;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      op_failed = true;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
};

/// Runs one operation, counting it as failed if it throws or fails a check.
template <typename Op>
void attempt(Outcome& outcome, const std::string& what, Op&& op) {
  ++outcome.attempted;
  outcome.op_failed = false;
  try {
    op();
  } catch (const std::exception& e) {
    outcome.check(false, what + " threw: " + e.what());
  }
  outcome.failed += outcome.op_failed ? 1 : 0;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void print_result(const Outcome& outcome, const Metrics& metrics) {
  for (const auto& [name, value] : metrics) {
    std::cout << std::left << std::setw(28) << name << std::setprecision(6)
              << value.first << " " << value.second << "\n";
  }
  std::ostringstream json;
  json << std::setprecision(std::numeric_limits<double>::max_digits10);
  json << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    json << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << value.first << ", \"unit\": \"" << value.second << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

template <typename Setup>
double median_setup_s(Setup&& setup) {
  std::vector<double> reps;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    setup();
    reps.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  return percentile(reps, 0.5);
}

/// Runs the untraced reference and the traced call of operation `k`,
/// alternating which goes first so neither always meets a warmer cache.
template <typename Reference, typename Traced>
void in_alternating_order(std::size_t k, Reference&& reference,
                          Traced&& traced) {
  if (k % 2 == 0) {
    reference();
    traced();
  } else {
    traced();
    reference();
  }
}

/// Writes the trace (traced runs) and prints the result line.
int finish(const Args& args, const Outcome& outcome, const Tracer& tracer,
           const Metrics& metrics) {
  if (args.trace && !args.trace_file.empty()) {
    std::ofstream out(args.trace_file);
    tracer.write_chrome_json(out);
  }
  print_result(outcome, metrics);
  return outcome.failed == 0 ? 0 : 1;
}

/// Best-of-passes wall time of each timed operation of a workload.  The
/// host's speed drifts by tens of percent over seconds; the fastest of
/// several passes, spread over the whole run, is the program's own cost.
struct BestTimes {
  std::vector<double> latency_ms;  ///< The operation the percentiles report.
  std::vector<double> work_ms;     ///< Everything designs_per_s counts.

  explicit BestTimes(std::size_t n)
      : latency_ms(n, std::numeric_limits<double>::infinity()),
        work_ms(n, std::numeric_limits<double>::infinity()) {}
  void add(std::size_t i, double latency, double work) {
    latency_ms[i] = std::min(latency_ms[i], latency);
    work_ms[i] = std::min(work_ms[i], work);
  }
};

/// End-to-end metrics every workload reports (--trace 0).
Metrics end_to_end(double setup_s, const BestTimes& best,
                   std::size_t designs_per_op,
                   const std::vector<double>& crit_paths,
                   const std::vector<double>& area_ratios) {
  double work_s = 0.0;
  for (const double ms : best.work_ms) {
    work_s += ms / 1000.0;
  }
  const double designs =
      static_cast<double>(best.work_ms.size() * designs_per_op);
  return {
      {"setup_s", {setup_s, "s"}},
      {"latency_ms_p50", {percentile(best.latency_ms, 0.5), "ms"}},
      {"latency_ms_p90", {percentile(best.latency_ms, 0.9), "ms"}},
      {"designs_per_s", {designs / work_s, "1/s"}},
      {"crit_path_gm", {geomean(crit_paths), "se_delay"}},
      {"area_ratio_gm", {geomean(area_ratios), "ratio"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
}

// --- per-layer accounting (--trace 1) --------------------------------------

/// The pipeline stages whose spans become `<stage>.ms`.
const std::vector<std::string>& stage_names() {
  static const std::vector<std::string> names = {
      "tech_map", "sharing", "plane_alloc", "cluster", "place",
      "route",    "timing",  "closure",     "program"};
  return names;
}

struct LayerTotals {
  std::map<std::string, double> stage_ms;  ///< Summed over ops.
  std::size_t ops = 0;                     ///< Top-level spans.
  double op_ms = 0.0;
  double uncovered_ms = 0.0;
  // Untraced reference vs traced: wall time of the same calls.
  double reference_ms = 0.0;
  double traced_ms = 0.0;
  double area_ms = 0.0;
  std::size_t priced = 0;
  // Per produced design.
  std::map<std::string, double> counters;
  std::size_t designs = 0;
  // edit_session cache layer.
  std::size_t edits = 0;
  std::size_t reopens = 0;
  double reopen_hits = 0.0;
  double reopen_misses = 0.0;
  std::size_t delta_edits = 0;
  std::size_t fallback_edits = 0;
  double nets_rerouted = 0.0;
  double rows_reused = 0.0;
  std::size_t evictions = 0;

  /// Folds a finished top-level span and its direct children (recorded
  /// after it).
  void add_op(const Tracer& tracer, int op) {
    const auto& spans = tracer.spans();
    double covered = 0.0;
    for (std::size_t i = static_cast<std::size_t>(op) + 1; i < spans.size(); ++i) {
      if (spans[i].parent == op) {
        stage_ms[spans[i].name] += spans[i].ms();
        covered += spans[i].ms();
      }
    }
    const double total = spans[static_cast<std::size_t>(op)].ms();
    ++ops;
    op_ms += total;
    uncovered_ms += std::max(0.0, total - covered);
  }

  void add_design(const mc::core::CompiledDesign& d) {
    std::size_t expanded = 0;
    std::size_t pushes = 0;
    std::size_t wire = 0;
    for (const auto& s : d.context_stats) {
      expanded += s.nodes_expanded;
      pushes += s.heap_pushes;
      wire += s.wire_nodes_used;
    }
    const mc::config::BitstreamStats bits =
        mc::config::compute_stats(d.full_bitstream);
    counters["route.nodes_expanded"] += static_cast<double>(expanded);
    counters["route.heap_pushes"] += static_cast<double>(pushes);
    counters["route.iterations"] += static_cast<double>(d.routing.iterations);
    counters["route.wirelength"] += static_cast<double>(wire);
    counters["place.cost"] += d.placement.cost;
    counters["program.rows"] += static_cast<double>(bits.num_rows);
    counters["sharing.merged_lut_ops"] +=
        static_cast<double>(d.sharing.merged_lut_ops());
    counters["closure.iterations"] += static_cast<double>(
        std::max<std::size_t>(1, d.closure_stats.size()));
    counters["config.complex_rows"] += static_cast<double>(bits.complex_rows);
    counters["config.constant_rows"] +=
        static_cast<double>(bits.constant_rows);
    ++designs;
  }

  void add_price(double ms, const mc::area::ComparisonReport& report) {
    area_ms += ms;
    counters["area.decoder_ses"] += static_cast<double>(report.decoder_ses);
    ++priced;
  }

  Metrics metrics() const {
    const auto per = [](double total, std::size_t n) {
      return n == 0 ? 0.0 : total / static_cast<double>(n);
    };
    const auto stage = [&](const std::string& name) {
      const auto it = stage_ms.find(name);
      return per(it == stage_ms.end() ? 0.0 : it->second, ops);
    };
    Metrics m;
    for (const std::string& name : stage_names()) {
      double value = stage(name);
      // One-shot flows run the closure loop's body exactly once: the
      // place -> route -> STA block.
      if (name == "closure" && stage_ms.count("closure") == 0) {
        value = stage("place") + stage("route") + stage("timing");
      }
      m.push_back({name + ".ms", {value, "ms"}});
    }
    m.push_back({"area.report_ms", {per(area_ms, priced), "ms"}});
    m.push_back({"flow.uncovered_ms", {per(uncovered_ms, ops), "ms"}});
    m.push_back({"flow.uncovered_pct",
                 {op_ms > 0.0 ? 100.0 * uncovered_ms / op_ms : 0.0, "%"}});
    m.push_back({"trace.overhead_pct",
                 {reference_ms > 0.0
                      ? 100.0 * (traced_ms - reference_ms) / reference_ms
                      : 0.0,
                  "%"}});
    for (const auto& [name, total] : counters) {
      const std::size_t n = name == "area.decoder_ses" ? priced : designs;
      m.push_back({name, {per(total, n), "count"}});
    }
    const double lookups = reopen_hits + reopen_misses;
    m.push_back({"cache.stage_hits", {per(reopen_hits, reopens), "count"}});
    m.push_back({"cache.stage_misses", {per(reopen_misses, reopens), "count"}});
    m.push_back({"cache.hit_ratio",
                 {lookups > 0.0 ? reopen_hits / lookups : 0.0, "ratio"}});
    m.push_back({"cache.evictions", {per(evictions, ops), "count"}});
    m.push_back({"cache.delta_ratio", {per(delta_edits, edits), "ratio"}});
    m.push_back({"cache.fallbacks", {per(fallback_edits, edits), "ratio"}});
    m.push_back({"cache.nets_rerouted", {per(nets_rerouted, edits), "count"}});
    m.push_back(
        {"cache.program_rows_reused", {per(rows_reused, edits), "count"}});
    return m;
  }
};

/// make_flow_context, each Stage::run, finalize_design — one span each,
/// under one `root` span.
mc::core::CompiledDesign traced_compile(
    Tracer& tracer, LayerTotals& totals, std::uint64_t request,
    const Design& d, const std::vector<const mc::core::Stage*>& pipeline,
    const char* root = "compile") {
  const int op = tracer.begin(root, request, -1);
  mc::core::FlowContext ctx;
  {
    ScopedSpan s(tracer, "make_flow_context", request, op);
    ctx = mc::core::make_flow_context(d.netlist, d.spec, d.options);
  }
  for (const mc::core::Stage* stage : pipeline) {
    ScopedSpan s(tracer, stage->name(), request, op);
    stage->run(ctx);
  }
  mc::core::CompiledDesign out;
  {
    ScopedSpan s(tracer, "finalize_design", request, op);
    out = mc::core::finalize_design(std::move(ctx));
  }
  tracer.end(op);
  totals.add_op(tracer, op);
  return out;
}

// --- cold_sweep and closure -------------------------------------------------

int run_compile_workload(const Args& args, bool closure) {
  std::vector<Design> corpus;
  const double setup_s = median_setup_s([&] {
    corpus = make_corpus(args.seed, closure ? kClosureLadder : kColdLadder);
    std::vector<Design> warm = warm_up_designs();
    if (closure) {
      for (Design& d : corpus) {
        use_closure(d);
      }
      for (Design& d : warm) {
        use_closure(d);
      }
    }
    for (const Design& d : warm) {
      const mc::core::MCFPGA fpga(d.netlist, d.spec, d.options);
      fpga.area_report();
    }
  });

  Outcome outcome;
  Tracer tracer;
  LayerTotals totals;
  BestTimes best(corpus.size());
  std::vector<double> crit_paths;
  std::vector<double> area_ratios;
  std::vector<std::uint64_t> first_hash(corpus.size(), 0);
  const RunClock clock(args.seconds, args.trace);
  for (std::size_t pass = 0; clock.another_pass(pass); ++pass) {
    for (std::size_t k = 0; k < corpus.size(); ++k) {
      const Design& d = corpus[k];
      attempt(outcome, d.name, [&] {
        std::optional<mc::core::MCFPGA> fpga;
        if (!args.trace) {
          const auto t0 = Clock::now();
          fpga.emplace(d.netlist, d.spec, d.options);
          const auto t1 = Clock::now();
          const mc::area::ComparisonReport report = fpga->area_report();
          best.add(k, ms_between(t0, t1), ms_between(t0, Clock::now()));
          if (pass == 0) {
            crit_paths.push_back(perfbench::worst_critical_path(fpga->design()));
            area_ratios.push_back(report.ratio());
            const mc::area::ComparisonReport priced =
                perfbench::price(fpga->design());
            outcome.check(priced.ratio() == report.ratio() &&
                              priced.decoder_ses == report.decoder_ses,
                          d.name + ": bench-side pricing != area_report");
          }
        } else {
          // The untraced reference (MCFPGA = core::compile + device build)
          // and the traced stage-by-stage compile plus the same device
          // build, in alternating order.
          mc::core::CompiledDesign traced;
          const auto reference = [&] {
            const auto t0 = Clock::now();
            fpga.emplace(d.netlist, d.spec, d.options);
            totals.reference_ms += ms_between(t0, Clock::now());
          };
          const auto traced_run = [&] {
            const auto t0 = Clock::now();
            traced = traced_compile(tracer, totals, k, d,
                                    closure ? mc::core::closure_pipeline()
                                            : mc::core::default_pipeline());
            const mc::arch::RoutingGraph graph(traced.fabric);
            const mc::sim::FabricSimulator device(graph, traced.program);
            totals.traced_ms += ms_between(t0, Clock::now());
          };
          in_alternating_order(k, reference, traced_run);
          const auto t0 = Clock::now();
          mc::area::ComparisonReport report;
          {
            ScopedSpan s(tracer, "area.report", k, -1);
            report = fpga->area_report();
          }
          totals.add_price(ms_between(t0, Clock::now()), report);
          totals.add_design(traced);
          outcome.check(perfbench::same_result(traced, fpga->design()),
                        d.name + ": traced compile differs from untraced");
          if (closure) {
            // The closure loop runs place/route/STA inside one stage; its
            // first iteration is exactly the one-shot block, traced here.
            Design one_shot = d;
            one_shot.options.closure_iterations = 1;
            LayerTotals shot;
            traced_compile(tracer, shot, k, one_shot,
                           mc::core::default_pipeline(), "compile.one_shot");
            for (const char* name : {"place", "route", "timing"}) {
              totals.stage_ms[name] += shot.stage_ms[name];
            }
          }
        }
        const mc::core::CompiledDesign& result = fpga->design();
        outcome.check(result.routing.success, d.name + ": routing failed");
        if (pass == 0) {
          outcome.check(perfbench::oracle_mismatches(d.netlist, result,
                                                     mix(args.seed, k)) == 0,
                        d.name + ": fabric disagrees with the input netlist");
          first_hash[k] = perfbench::bitstream_hash(result);
        } else {
          outcome.check(perfbench::bitstream_hash(result) == first_hash[k],
                        d.name + ": recompile is not deterministic");
        }
      });
    }
  }

  // make_flow_context, the stages and finalize_design are the whole
  // compile; what they leave uncovered is span bookkeeping only.
  if (args.trace && totals.uncovered_ms > 0.01 * totals.op_ms) {
    std::cerr << "perfbench: stage spans leave over 1% of compile time "
                 "uncovered\n";
    ++outcome.failed;
  }
  return finish(args, outcome, tracer,
                args.trace ? totals.metrics()
                           : end_to_end(setup_s, best, 1, crit_paths,
                                        area_ratios));
}

// --- edit_session -----------------------------------------------------------

/// One edit session: a base design and the chain of edited netlists.
struct Session {
  Design base;
  std::vector<mc::netlist::MultiContextNetlist> edits;
};

Session make_session(std::uint64_t seed, std::size_t s) {
  Session session{edit_base(seed, s), {}};
  const std::vector<std::size_t> targets = lut_nodes(session.base.netlist);
  mc::Rng rng(mix(seed, 2000 + s));
  const mc::netlist::MultiContextNetlist* current = &session.base.netlist;
  session.edits.reserve(kEditsPerSession);
  for (std::size_t e = 0; e < kEditsPerSession; ++e) {
    session.edits.push_back(make_edit(*current, targets, rng, e));
    current = &session.edits.back();
  }
  return session;
}

int run_edit_workload(const Args& args) {
  std::vector<Session> sessions;
  const auto warm_up = [](mc::cache::CompileService& svc) {
    for (const Design& warm : warm_up_designs()) {
      svc.compile(warm.netlist, warm.spec, warm.options);
    }
  };
  const double setup_s = median_setup_s([&] {
    sessions.clear();
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(make_session(args.seed, s));
    }
    mc::cache::CompileService service;
    warm_up(service);
  });

  Outcome outcome;
  Tracer tracer;
  LayerTotals totals;
  const std::size_t ops = kSessions * kEditsPerSession;
  BestTimes best(ops);
  std::vector<double> crit_paths;
  std::vector<double> area_ratios;
  std::vector<std::uint64_t> first_hash(ops, 0);
  std::uint64_t request = 0;

  const RunClock clock(args.seconds, args.trace);
  for (std::size_t pass = 0; clock.another_pass(pass); ++pass) {
    // Every pass replays the same calls against a fresh service, so cache
    // state, and therefore every result, repeats pass to pass.  The traced
    // pass drives a second, traced service through the same calls.
    mc::cache::CompileService service;
    warm_up(service);
    std::optional<mc::cache::CompileService> traced_service;
    if (args.trace) {
      traced_service.emplace();
      warm_up(*traced_service);
    }
    using Call = std::function<mc::cache::Compiled(
        mc::cache::CompileService&, mc::core::StageObserver*)>;
    // One CompileService call; the traced pass also makes it traced.
    const auto run_call = [&](const char* kind, const Call& call,
                              double* ms) -> mc::cache::Compiled {
      if (!args.trace) {
        const auto t0 = Clock::now();
        mc::cache::Compiled out = call(service, nullptr);
        *ms = ms_between(t0, Clock::now());
        return out;
      }
      ++request;
      mc::cache::Compiled reference;
      mc::cache::Compiled traced;
      const auto reference_run = [&] {
        const auto t0 = Clock::now();
        reference = call(service, nullptr);
        totals.reference_ms += ms_between(t0, Clock::now());
      };
      const auto traced_run = [&] {
        const auto t0 = Clock::now();
        const int op = tracer.begin(kind, request, -1);
        SpanObserver observer(tracer, request, op);
        traced = call(*traced_service, &observer);
        observer.finish();
        tracer.end(op);
        totals.traced_ms += ms_between(t0, Clock::now());
        totals.add_op(tracer, op);
      };
      in_alternating_order(request, reference_run, traced_run);
      outcome.check(perfbench::same_result(reference.design, traced.design),
                    std::string(kind) + ": traced result differs from untraced");
      return reference;
    };

    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const Session& session = sessions[s];
      const Design& base = session.base;
      std::optional<mc::cache::Compiled> current;
      attempt(outcome, base.name + " open", [&] {
        double ms = 0.0;
        current = run_call(
            "open",
            [&](mc::cache::CompileService& svc, mc::core::StageObserver* obs) {
              return svc.compile(base.netlist, base.spec, base.options, obs);
            },
            &ms);
        if (pass == 0) {
          outcome.check(
              perfbench::oracle_mismatches(base.netlist, current->design,
                                           mix(args.seed, s)) == 0,
              base.name + ": fabric disagrees with the input netlist");
        }
      });
      for (std::size_t e = 0; current && e < session.edits.size(); ++e) {
        const mc::netlist::MultiContextNetlist& edited = session.edits[e];
        const std::size_t i = s * kEditsPerSession + e;
        const std::string what = base.name + " edit " + std::to_string(e) +
                                 (e % 2 == 0 ? " (retable)" : " (rewire)");
        std::optional<mc::cache::Compiled> next;
        double edit_ms = 0.0;
        attempt(outcome, what, [&] {
          next = run_call(
              "edit",
              [&](mc::cache::CompileService& svc, mc::core::StageObserver* obs) {
                return svc.compile_incremental(*current, edited, base.options,
                                               obs);
              },
              &edit_ms);
          const mc::core::CompiledDesign& d = next->design;
          if (pass == 0) {
            outcome.check(perfbench::oracle_mismatches(edited, d,
                                                       mix(args.seed, i)) == 0,
                          what + ": fabric disagrees with the edited netlist");
            first_hash[i] = perfbench::bitstream_hash(d);
          } else {
            outcome.check(perfbench::bitstream_hash(d) == first_hash[i],
                          what + ": edit result is not deterministic");
          }
          if (pass == 0 && !args.trace) {
            crit_paths.push_back(perfbench::worst_critical_path(d));
            area_ratios.push_back(perfbench::price(d).ratio());
          }
          if (args.trace) {
            const auto p0 = Clock::now();
            mc::area::ComparisonReport report;
            {
              ScopedSpan span(tracer, "area.report", request, -1);
              report = perfbench::price(d);
            }
            totals.add_price(ms_between(p0, Clock::now()), report);
            totals.add_design(d);
            ++totals.edits;
            totals.delta_edits += d.cache.delta ? 1 : 0;
            totals.fallback_edits += d.cache.delta_fallback.empty() ? 0 : 1;
            totals.nets_rerouted += static_cast<double>(d.cache.nets_rerouted);
            totals.rows_reused +=
                static_cast<double>(d.cache.program_rows_reused);
          }
        });
        if (!next) {
          break;
        }
        attempt(outcome, what + " re-open", [&] {
          double reopen_ms = 0.0;
          const mc::cache::Compiled reopened = run_call(
              "reopen",
              [&](mc::cache::CompileService& svc, mc::core::StageObserver* obs) {
                return svc.compile(edited, base.spec, base.options, obs);
              },
              &reopen_ms);
          if (!args.trace) {
            best.add(i, edit_ms, edit_ms + reopen_ms);
          }
          const mc::core::CompiledDesign& d = reopened.design;
          if (pass == 0) {
            outcome.check(perfbench::oracle_mismatches(edited, d,
                                                       mix(args.seed, i)) == 0,
                          what + " re-open: fabric disagrees with the netlist");
          }
          if (args.trace) {
            ++totals.reopens;
            totals.reopen_hits += static_cast<double>(d.cache.hits);
            totals.reopen_misses += static_cast<double>(d.cache.misses);
            totals.evictions = d.cache.evictions;
          }
        });
        current = std::move(next);
      }
    }
  }

  return finish(args, outcome, tracer,
                args.trace ? totals.metrics()
                           : end_to_end(setup_s, best, 2, crit_paths,
                                        area_ratios));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.workload == "edit_session"
               ? run_edit_workload(args)
               : run_compile_workload(args, args.workload == "closure");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
