// Entry validation of RouterOptions / PlacerOptions / sim::DelayParams:
// bad knob values used to fail silently (or loop forever); now they raise
// InvalidArgument at the API boundary.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "arch/routing_graph.hpp"
#include "common/error.hpp"
#include "core/flow.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sim/delay_model.hpp"
#include "workload/circuits.hpp"

namespace mcfpga {
namespace {

arch::FabricSpec tiny_spec() {
  arch::FabricSpec spec;
  spec.width = 2;
  spec.height = 2;
  spec.channel_width = 4;
  return spec;
}

TEST(RouterOptionsValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(route::RouterOptions{}.validate());
}

TEST(RouterOptionsValidation, RejectsZeroIterations) {
  route::RouterOptions o;
  o.max_iterations = 0;
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(RouterOptionsValidation, RejectsNegativeIncrements) {
  route::RouterOptions o;
  o.history_increment = -1.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.present_factor_growth = 0.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.max_criticality = 1.0;  // would erase congestion pressure entirely
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(RouterOptionsValidation, RejectsBadCriticalityExponentSchedules) {
  route::RouterOptions o;
  o.criticality_exponent_schedule.start = 0.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.criticality_exponent_schedule.start = -2.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.criticality_exponent_schedule.step = -0.5;  // ramps must not decay
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.criticality_exponent_schedule = {2.0, 0.5, 1.0};  // ceiling below start
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.criticality_exponent_schedule = {1.0, 0.5, 8.0};  // a real VPR ramp
  EXPECT_NO_THROW(o.validate());
}

TEST(RouterOptionsValidation, RejectsNonFiniteCongestionKnobs) {
  // An infinite growth or increment turns node costs infinite within one
  // rip-up iteration; NaN slips past the sign checks.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kInf, kNaN}) {
    route::RouterOptions o;
    o.present_factor_growth = bad;
    EXPECT_THROW(o.validate(), InvalidArgument)
        << "present_factor_growth " << bad;
    o = {};
    o.history_increment = bad;
    EXPECT_THROW(o.validate(), InvalidArgument)
        << "history_increment " << bad;
  }
  // Huge but finite stays legal: the expansion queue clamps its buckets.
  route::RouterOptions o;
  o.history_increment = 1e300;
  o.present_factor_growth = 1e300;
  EXPECT_NO_THROW(o.validate());
}

TEST(RouterOptionsValidation, RejectsNonFiniteCriticalityExponentSchedules) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kInf, kNaN}) {
    route::RouterOptions o;
    o.criticality_exponent_schedule = {bad, 0.0, kInf};
    EXPECT_THROW(o.validate(), InvalidArgument) << "start " << bad;
    o.criticality_exponent_schedule = {1.0, bad, 8.0};
    EXPECT_THROW(o.validate(), InvalidArgument) << "step " << bad;
    o.criticality_exponent_schedule = {1.0, 0.5, bad};
    EXPECT_THROW(o.validate(), InvalidArgument) << "max " << bad;
  }
}

TEST(RouterOptionsValidation, RouterConstructorValidates) {
  const arch::RoutingGraph graph(tiny_spec());
  route::RouterOptions o;
  o.max_iterations = 0;
  EXPECT_THROW(route::Router(graph, o), InvalidArgument);
}

TEST(RouterOptionsValidation, HugePresentFactorGrowthBehavesLikeDefault) {
  // A finite growth such as 1e300 used to overflow the present-congestion
  // factor to inf by the second rip-up iteration; inf * 0 occupancy then
  // made every free node's cost NaN, and a net with free paths threw "no
  // physical path".  The factor is clamped, so a huge growth ends this
  // congested compile exactly as the default growth does.
  arch::FabricSpec spec;
  spec.width = 3;
  spec.height = 3;
  spec.channel_width = 2;
  spec.double_length_tracks = 0;
  const auto nl = workload::pipeline_workload(4, 12);
  const auto outcome = [&](double growth) -> std::string {
    core::CompileOptions o;
    o.router.present_factor_growth = growth;
    try {
      core::compile(nl, spec, o);
      return "routed";
    } catch (const FlowError& e) {
      return e.what();
    }
  };
  const std::string reference = outcome(1.6);
  ASSERT_NE(reference.find("routing failed to converge"), std::string::npos)
      << reference;
  for (const double growth : {1e200, 1e300}) {
    const std::string got = outcome(growth);
    EXPECT_EQ(got.find("no physical path"), std::string::npos)
        << "growth " << growth << ": " << got;
    EXPECT_EQ(got, reference) << "growth " << growth;
  }
}

TEST(RouterOptionsValidation, HugeHistoryIncrementBehavesLikeDefault) {
  // The history sibling of the present-factor overflow: a finite
  // history_increment of 1e308 used to overflow a congested node's history
  // to inf, and the router threw "no physical path" on this design.  The
  // history is clamped, so the compile fails only to converge, as it does
  // with the default increment.
  arch::FabricSpec spec;
  spec.width = 3;
  spec.height = 3;
  spec.channel_width = 2;
  spec.double_length_tracks = 0;
  const auto nl = workload::pipeline_workload(4, 12);
  const auto outcome = [&](double increment) -> std::string {
    core::CompileOptions o;
    o.router.history_increment = increment;
    try {
      core::compile(nl, spec, o);
      return "routed";
    } catch (const FlowError& e) {
      return e.what();
    }
  };
  const std::string reference = outcome(1.0);
  ASSERT_NE(reference.find("routing failed to converge"), std::string::npos)
      << reference;
  for (const double increment : {1e300, 1e308}) {
    const std::string got = outcome(increment);
    EXPECT_EQ(got.find("no physical path"), std::string::npos)
        << "history_increment " << increment << ": " << got;
    EXPECT_NE(got.find("routing failed to converge"), std::string::npos)
        << "history_increment " << increment << ": " << got;
  }
}

TEST(DelayParamsValidation, RejectsNonPositiveOrNonFiniteDelays) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(sim::DelayParams{}.validate());
  // A zero or negative SE delay makes timing-driven relaxation increments
  // non-positive — no longer a Dijkstra expansion.
  for (const double se : {0.0, -1.0, kNaN, kInf}) {
    EXPECT_THROW((sim::DelayParams{se, 2.0}.validate()), InvalidArgument)
        << "se_delay " << se;
  }
  for (const double lut : {-0.5, kNaN, kInf}) {
    EXPECT_THROW((sim::DelayParams{1.0, lut}.validate()), InvalidArgument)
        << "lut_delay " << lut;
  }
  EXPECT_NO_THROW((sim::DelayParams{0.25, 0.0}.validate()));
}

TEST(DelayParamsValidation, CompileValidatesAtEntry) {
  const auto nl = workload::pipeline_workload(4, 2);
  const arch::FabricSpec spec = tiny_spec();
  core::CompileOptions o;
  o.router.timing_mode = true;
  EXPECT_NO_THROW(core::compile(nl, spec, o));  // only the delays are bad
  o.delay.se_delay = 0.0;
  EXPECT_THROW(core::compile(nl, spec, o), InvalidArgument);
  o.delay.se_delay = -1.0;
  EXPECT_THROW(core::compile(nl, spec, o), InvalidArgument);
  o.delay = {};
  o.delay.lut_delay = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::compile(nl, spec, o), InvalidArgument);
}

TEST(PlacerOptionsValidation, DefaultsAreValid) {
  EXPECT_NO_THROW(place::PlacerOptions{}.validate());
}

TEST(PlacerOptionsValidation, RejectsZeroBudgets) {
  place::PlacerOptions o;
  o.sweeps = 0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.num_restarts = 0;
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(PlacerOptionsValidation, RejectsBadWeightsAndSchedules) {
  place::PlacerOptions o;
  o.cooling = 0.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.cooling = 1.5;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.initial_temperature_factor = -0.1;
  EXPECT_THROW(o.validate(), InvalidArgument);
  o = {};
  o.timing_weight = -1.0;
  EXPECT_THROW(o.validate(), InvalidArgument);
}

TEST(PlacerOptionsValidation, RejectsNonFiniteValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, nan, 1e300, 0x1p62}) {
    place::PlacerOptions o;
    o.timing_weight = bad;
    EXPECT_THROW(o.validate(), InvalidArgument) << bad;
  }
  for (const double bad : {inf, nan}) {
    place::PlacerOptions o;
    o.initial_temperature_factor = bad;
    EXPECT_THROW(o.validate(), InvalidArgument) << bad;
  }
}

TEST(PlacerOptionsValidation, RejectsTimingWeightOverflowingNetWeight) {
  // 2^61 passes validate(), and a fully critical weight-1 net's weight
  // still fits int64; a weight-8 net's rounded product does not.
  place::PlacerOptions o;
  o.seed = 1;
  o.timing_mode = true;
  o.timing_weight = 0x1p61;
  EXPECT_NO_THROW(o.validate());
  place::PlacementNet net;
  net.criticality = 1.0;
  net.weight = 1;
  EXPECT_EQ(place::effective_net_weight(net, o),
            (std::int64_t{1} << 61) + 1);
  net.weight = 8;
  EXPECT_THROW(place::effective_net_weight(net, o), InvalidArgument);

  const arch::RoutingGraph graph(tiny_spec());
  place::PlacementProblem prob;
  prob.num_clusters = 2;
  net.driver = place::Terminal::cluster(0);
  net.sinks = {place::Terminal::cluster(1)};
  prob.nets.push_back(net);
  EXPECT_THROW(place::place(prob, graph, o), InvalidArgument);
  // A weight-3 net's weight fits, but its weighted wirelength could
  // reach 6 * 2^61 on this fabric: the anneal's int64 cost would
  // overflow, so place() rejects it too.
  prob.nets[0].weight = 3;
  EXPECT_EQ(place::effective_net_weight(prob.nets[0], o),
            3 * ((std::int64_t{1} << 61) + 1));
  EXPECT_THROW(place::place(prob, graph, o), InvalidArgument);
  o.timing_weight = 0x1p50;
  EXPECT_NO_THROW(place::place(prob, graph, o));
  // Timing mode off: criticalities are ignored, so nothing overflows.
  o.timing_weight = 0x1p61;
  o.timing_mode = false;
  prob.nets[0].weight = 8;
  EXPECT_NO_THROW(place::place(prob, graph, o));
}

TEST(PlacerOptionsValidation, PlaceValidatesAtEntry) {
  const arch::RoutingGraph graph(tiny_spec());
  place::PlacementProblem prob;
  prob.num_clusters = 1;
  place::PlacerOptions o;
  o.seed = 1;
  o.sweeps = 0;
  EXPECT_THROW(place::place(prob, graph, o), InvalidArgument);
}

TEST(PlacerOptionsValidation, PlaceRejectsOutOfRangeCriticality) {
  const arch::RoutingGraph graph(tiny_spec());
  place::PlacementProblem prob;
  prob.num_clusters = 2;
  place::PlacementNet net;
  net.driver = place::Terminal::cluster(0);
  net.sinks = {place::Terminal::cluster(1)};
  net.criticality = 1.5;
  prob.nets.push_back(net);
  place::PlacerOptions o;
  o.seed = 1;
  EXPECT_THROW(place::place(prob, graph, o), InvalidArgument);
}

place::PlacementProblem crit_problem() {
  place::PlacementProblem prob;
  prob.num_clusters = 4;
  for (std::size_t i = 0; i + 1 < prob.num_clusters; ++i) {
    place::PlacementNet net;
    net.driver = place::Terminal::cluster(i);
    net.sinks = {place::Terminal::cluster(i + 1)};
    net.weight = 2;
    net.criticality = 0.25 * static_cast<double>(i + 1);
    prob.nets.push_back(net);
  }
  return prob;
}

TEST(PlacerTimingMode, CriticalitiesInertWhenOff) {
  // With timing_mode off, net criticalities must not perturb the anneal:
  // bit-identical placement to the same problem with zero criticalities.
  const arch::RoutingGraph graph(tiny_spec());
  place::PlacerOptions o;
  o.seed = 3;
  const place::PlacementProblem with_crit = crit_problem();
  place::PlacementProblem without = with_crit;
  for (auto& net : without.nets) {
    net.criticality = 0.0;
  }
  const auto a = place::place(with_crit, graph, o);
  const auto b = place::place(without, graph, o);
  EXPECT_EQ(a.cluster_pos, b.cluster_pos);
  EXPECT_EQ(a.io_pads, b.io_pads);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST(PlacerTimingMode, CostMatchesWeightedOracle) {
  const arch::RoutingGraph graph(tiny_spec());
  place::PlacerOptions o;
  o.seed = 3;
  o.timing_mode = true;
  o.timing_weight = 4.0;
  const place::PlacementProblem prob = crit_problem();
  const auto p = place::place(prob, graph, o);
  EXPECT_DOUBLE_EQ(p.cost, place::placement_cost(prob, graph, p, o));
  // A fully critical net weighs (1 + timing_weight)x its base weight.
  place::PlacementNet net;
  net.weight = 2;
  net.criticality = 1.0;
  EXPECT_EQ(place::effective_net_weight(net, o), 10);
  net.criticality = 0.0;
  EXPECT_EQ(place::effective_net_weight(net, o), 2);
}

}  // namespace
}  // namespace mcfpga
