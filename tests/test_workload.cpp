// Topology generators and churn workloads (the substrate under the scaling
// benches) plus the as-path policy match.
#include <gtest/gtest.h>

#include <set>

#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"

namespace hbguard {
namespace {

TEST(Generators, ChainLinkStructure) {
  Topology topo = make_chain_topology(6);
  ASSERT_EQ(topo.link_count(), 5u);
  for (LinkId l = 0; l < 5; ++l) {
    EXPECT_EQ(topo.link(l).a, l);
    EXPECT_EQ(topo.link(l).b, l + 1);
  }
}

TEST(Generators, RingClosesTheLoop) {
  Topology topo = make_ring_topology(4);
  EXPECT_EQ(topo.link_count(), 4u);
  EXPECT_TRUE(topo.link_between(3, 0).has_value());
}

TEST(Generators, TinyRingDegeneratesToChain) {
  EXPECT_EQ(make_ring_topology(2).link_count(), 1u);
  EXPECT_EQ(make_ring_topology(1).link_count(), 0u);
}

TEST(Generators, FullMeshAllPairs) {
  Topology topo = make_full_mesh_topology(6);
  EXPECT_EQ(topo.link_count(), 15u);
  for (RouterId a = 0; a < 6; ++a) {
    for (RouterId b = a + 1; b < 6; ++b) {
      EXPECT_TRUE(topo.link_between(a, b).has_value());
    }
  }
}

TEST(Generators, RandomTopologyIsConnectedAndDeduplicated) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    Rng rng(seed);
    Topology topo = make_random_topology(12, 8, rng);
    // No duplicate links.
    std::set<std::pair<RouterId, RouterId>> seen;
    for (const Link& link : topo.links()) {
      auto key = std::make_pair(std::min(link.a, link.b), std::max(link.a, link.b));
      EXPECT_TRUE(seen.insert(key).second) << "duplicate link";
    }
    // Connected: BFS reaches everyone.
    std::set<RouterId> reached{0};
    std::vector<RouterId> frontier{0};
    while (!frontier.empty()) {
      RouterId r = frontier.back();
      frontier.pop_back();
      for (RouterId n : topo.up_neighbors(r)) {
        if (reached.insert(n).second) frontier.push_back(n);
      }
    }
    EXPECT_EQ(reached.size(), topo.router_count());
  }
}

TEST(Generators, RandomTopologyDeterministicPerSeed) {
  auto build = [] {
    Rng rng(42);
    Topology topo = make_random_topology(10, 5, rng);
    std::vector<std::tuple<RouterId, RouterId, SimTime>> links;
    for (const Link& link : topo.links()) links.emplace_back(link.a, link.b, link.delay_us);
    return links;
  };
  EXPECT_EQ(build(), build());
}

TEST(Churn, SchedulesExactlyRequestedEvents) {
  auto generated = make_ibgp_network(make_chain_topology(4), 2);
  generated.network->run_to_convergence();
  ChurnOptions options;
  options.event_count = 17;
  ChurnWorkload churn(generated, options);
  EXPECT_EQ(churn.scheduled_events(), 17u);
  EXPECT_EQ(churn.prefixes().size(), options.prefix_count);
  generated.network->run_to_convergence();  // must drain without hanging
}

TEST(Churn, NoUplinksMeansNoEvents) {
  auto generated = make_ibgp_network(make_chain_topology(3), 0);
  generated.network->run_to_convergence();
  ChurnWorkload churn(generated, {});
  EXPECT_EQ(churn.scheduled_events(), 0u);
}

TEST(Churn, ConfigChurnTouchesOnlyUplinkPolicies) {
  auto generated = make_ibgp_network(make_chain_topology(4), 1);
  Network& net = *generated.network;
  net.run_to_convergence();
  ChurnOptions options;
  options.config_change_probability = 1.0;  // config changes only
  options.event_count = 5;
  ChurnWorkload churn(generated, options);
  net.run_to_convergence();
  // All changes landed on the uplink router and only touched its LP map.
  for (const ConfigChangeRecord& record : net.configs().history()) {
    if (record.parent == kNoVersion) continue;  // initial configs
    EXPECT_EQ(record.router, generated.uplinks[0].router);
    EXPECT_NE(record.description.find("local-pref"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// AS-path policy matching (used to express "avoid transit via AS X").

TEST(AsPathPolicy, MatchContains) {
  RouteMapClause clause;
  clause.match_as_path_contains = 64999;
  PolicyRouteView through{*Prefix::parse("10.0.0.0/8"), 100, 0, {64500, 64999}, "s", {}};
  PolicyRouteView direct{*Prefix::parse("10.0.0.0/8"), 100, 0, {64500}, "s", {}};
  EXPECT_TRUE(clause.matches(through));
  EXPECT_FALSE(clause.matches(direct));
}

TEST(AsPathPolicy, AvoidTransitEndToEnd) {
  // R3 refuses any path transiting AS 64999; both uplinks advertise P with
  // 64999 in the path, so R3 must end up with no route even though its
  // peers have one.
  auto scenario = PaperScenario::make();
  scenario.network->apply_config_change(
      scenario.r3, "avoid AS 64999", [](RouterConfig& config) {
        RouteMap avoid;
        avoid.name = "avoid-64999";
        RouteMapClause deny;
        deny.match_as_path_contains = 64999;
        deny.action = RouteMapClause::Action::kDeny;
        avoid.clauses.push_back(deny);
        config.route_maps["avoid-64999"] = std::move(avoid);
        config.bgp.find_session("ibgp-R1")->import_policy = "avoid-64999";
        config.bgp.find_session("ibgp-R2")->import_policy = "avoid-64999";
      });
  scenario.converge_initial();

  EXPECT_EQ(scenario.router3().data_fib().find(scenario.prefix_p), nullptr);
  EXPECT_NE(scenario.router1().data_fib().find(scenario.prefix_p), nullptr);
}

// ---- Synthetic traffic demand ----

TEST(TrafficDemand, WeightsSumExactlyToTotal) {
  TrafficDemandOptions options;
  options.prefix_count = 1000;
  options.ingress_count = 5;
  options.total_weight = 999'999'937;  // prime: apportionment can't be even
  TrafficDemand demand = make_traffic_demand(options);

  ASSERT_EQ(demand.prefixes.size(), options.prefix_count);
  ASSERT_EQ(demand.prefix_weight.size(), options.prefix_count);
  std::uint64_t sum = 0;
  for (std::uint64_t w : demand.prefix_weight) sum += w;
  EXPECT_EQ(sum, options.total_weight);
  EXPECT_EQ(demand.total, options.total_weight);

  // Demand-matrix columns apportion each prefix's weight exactly.
  ASSERT_EQ(demand.ingress_weight.size(), options.ingress_count);
  for (std::size_t i = 0; i < options.prefix_count; ++i) {
    std::uint64_t column = 0;
    for (std::size_t g = 0; g < options.ingress_count; ++g) {
      column += demand.ingress_weight[g][i];
    }
    EXPECT_EQ(column, demand.prefix_weight[i]) << "column " << i;
  }
}

TEST(TrafficDemand, DeterministicPerSeedAndSensitiveToIt) {
  TrafficDemandOptions options;
  options.prefix_count = 256;
  options.ingress_count = 3;
  TrafficDemand a = make_traffic_demand(options);
  TrafficDemand b = make_traffic_demand(options);
  EXPECT_EQ(a.prefix_weight, b.prefix_weight);
  EXPECT_EQ(a.ingress_weight, b.ingress_weight);

  options.seed += 1;
  TrafficDemand c = make_traffic_demand(options);
  // Zipf prefix weights ignore the seed (rank is deterministic)...
  EXPECT_EQ(a.prefix_weight, c.prefix_weight);
  // ...but the ingress split is seeded.
  EXPECT_NE(a.ingress_weight, c.ingress_weight);
}

TEST(TrafficDemand, ZipfTailIsMonotoneAndHeavyHeaded) {
  TrafficDemandOptions options;
  options.prefix_count = 4096;
  options.zipf_exponent = 1.0;
  TrafficDemand demand = make_traffic_demand(options);

  for (std::size_t i = 1; i < demand.prefix_weight.size(); ++i) {
    EXPECT_GE(demand.prefix_weight[i - 1], demand.prefix_weight[i]) << "rank " << i;
  }
  // Harmonic concentration: the top 1% of ranks carries far more than 1% of
  // the weight (for n=4096, H(41)/H(4096) is ~51%; assert a loose floor).
  std::uint64_t head = 0;
  for (std::size_t i = 0; i < demand.prefix_weight.size() / 100; ++i) {
    head += demand.prefix_weight[i];
  }
  EXPECT_GT(head, demand.total / 3);
}

TEST(TrafficDemand, ZeroExponentIsNearUniform) {
  TrafficDemandOptions options;
  options.prefix_count = 128;
  options.zipf_exponent = 0.0;
  options.total_weight = 128 * 1000 + 57;  // deliberately uneven
  TrafficDemand demand = make_traffic_demand(options);
  // Largest-remainder apportionment of equal shares: every weight within 1.
  for (std::uint64_t w : demand.prefix_weight) {
    EXPECT_GE(w, 1000u);
    EXPECT_LE(w, 1001u);
  }
}

TEST(TrafficDemand, CustomPrefixMapIsUsed) {
  TrafficDemandOptions options;
  options.prefix_count = 8;
  TrafficDemand demand =
      make_traffic_demand(options, [](std::size_t i) { return churn_prefix(i); });
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(demand.prefixes[i], churn_prefix(i));
}

}  // namespace
}  // namespace hbguard
