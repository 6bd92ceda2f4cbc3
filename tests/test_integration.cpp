// End-to-end integration tests for features not covered by the paper
// scenarios: Add-Path, redistribution, static routes, OSPF cost overrides,
// and capture imperfections flowing through the whole pipeline.
#include <gtest/gtest.h>

#include "hbguard/core/guard.hpp"
#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/snapshot/naive.hpp"

namespace hbguard {
namespace {

PolicyList paper_policies(const PaperScenario& scenario) {
  PolicyList policies;
  policies.push_back(std::make_shared<LoopFreedomPolicy>(scenario.prefix_p));
  policies.push_back(std::make_shared<BlackholeFreedomPolicy>(scenario.prefix_p));
  policies.push_back(std::make_shared<PreferredExitPolicy>(
      scenario.prefix_p, scenario.r2, PaperScenario::kUplink2, scenario.r1,
      PaperScenario::kUplink1));
  return policies;
}

PaperScenario make_add_path_scenario() {
  auto scenario = PaperScenario::make();
  for (RouterId r : {scenario.r1, scenario.r2, scenario.r3}) {
    scenario.network->apply_config_change(r, "enable add-path", [](RouterConfig& config) {
      config.bgp.add_path = true;
    });
  }
  scenario.converge_initial();
  return scenario;
}

TEST(AddPath, IbgpPeersSeeAllBorderPaths) {
  auto scenario = make_add_path_scenario();
  // R3 has no uplink of its own; with add-path it must know *both* border
  // routers' paths for P, not just the winner.
  auto paths_r1 = scenario.router3().bgp().adj_rib_in("ibgp-R1");
  auto paths_r2 = scenario.router3().bgp().adj_rib_in("ibgp-R2");
  std::size_t p_paths = 0;
  for (const auto& route : paths_r1) {
    if (route.prefix == scenario.prefix_p) ++p_paths;
  }
  for (const auto& route : paths_r2) {
    if (route.prefix == scenario.prefix_p) ++p_paths;
  }
  EXPECT_GE(p_paths, 2u) << "add-path must expose the backup path at R3";
  // Behaviour is unchanged: LP 30 still wins.
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
}

TEST(AddPath, FailoverWithoutWaitingForReadvertisement) {
  auto scenario = make_add_path_scenario();
  std::size_t events_before = scenario.network->sim().dispatched();
  scenario.fail_uplink2();
  scenario.network->run_to_convergence();
  std::size_t add_path_events = scenario.network->sim().dispatched() - events_before;
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r1));

  // Compare with the non-add-path network: the same failover needs R1 to
  // re-advertise before R3 can switch, costing extra messages.
  auto baseline = PaperScenario::make();
  baseline.converge_initial();
  events_before = baseline.network->sim().dispatched();
  baseline.fail_uplink2();
  baseline.network->run_to_convergence();
  std::size_t baseline_events = baseline.network->sim().dispatched() - events_before;
  EXPECT_TRUE(baseline.fib_exits_via(baseline.r3, baseline.r1));
  EXPECT_LE(add_path_events, baseline_events)
      << "pre-distributed backup paths shouldn't need more events than "
         "re-advertisement";
}

TEST(Redistribution, StaticRouteReachesTheWholeNetwork) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  Prefix lan = *Prefix::parse("172.16.0.0/16");

  scenario.network->apply_config_change(scenario.r3, "attach LAN + redistribute",
                                        [&](RouterConfig& config) {
                                          config.statics.push_back({lan, std::nullopt});
                                          config.redistributions.push_back(
                                              {Protocol::kStatic, Protocol::kEbgp, ""});
                                        });
  scenario.network->run_to_convergence();

  // R3 drops locally (null route); R1 and R2 forward toward R3.
  const FibEntry* r3 = scenario.router3().data_fib().find(lan);
  ASSERT_NE(r3, nullptr);
  EXPECT_EQ(r3->action, FibEntry::Action::kDrop);
  for (RouterId r : {scenario.r1, scenario.r2}) {
    const FibEntry* entry = scenario.network->router(r).data_fib().find(lan);
    ASSERT_NE(entry, nullptr) << "router " << r;
    EXPECT_EQ(entry->action, FibEntry::Action::kForward);
    EXPECT_EQ(entry->next_hop, scenario.r3);
  }
}

TEST(Redistribution, RemovingTheStaticWithdrawsEverywhere) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  Prefix lan = *Prefix::parse("172.16.0.0/16");
  scenario.network->apply_config_change(scenario.r3, "attach LAN", [&](RouterConfig& config) {
    config.statics.push_back({lan, std::nullopt});
    config.redistributions.push_back({Protocol::kStatic, Protocol::kEbgp, ""});
  });
  scenario.network->run_to_convergence();
  ASSERT_NE(scenario.router1().data_fib().find(lan), nullptr);

  scenario.network->apply_config_change(scenario.r3, "detach LAN", [&](RouterConfig& config) {
    config.statics.clear();
  });
  scenario.network->run_to_convergence();
  EXPECT_EQ(scenario.router1().data_fib().find(lan), nullptr);
  EXPECT_EQ(scenario.router2().data_fib().find(lan), nullptr);
  EXPECT_EQ(scenario.router3().data_fib().find(lan), nullptr);
}

TEST(StaticRoutes, ForwardAndExternalActions) {
  auto scenario = PaperScenario::make();
  Prefix via = *Prefix::parse("10.50.0.0/16");
  Prefix ext = *Prefix::parse("10.60.0.0/16");
  scenario.network->apply_config_change(scenario.r1, "add statics", [&](RouterConfig& config) {
    config.statics.push_back({via, scenario.r3});
    config.statics.push_back({ext, kExternalRouter});
  });
  scenario.network->run_to_convergence();

  const FibEntry* forward = scenario.router1().data_fib().find(via);
  ASSERT_NE(forward, nullptr);
  EXPECT_EQ(forward->action, FibEntry::Action::kForward);
  EXPECT_EQ(forward->next_hop, scenario.r3);
  const FibEntry* external = scenario.router1().data_fib().find(ext);
  ASSERT_NE(external, nullptr);
  EXPECT_EQ(external->action, FibEntry::Action::kExternal);
}

TEST(OspfCosts, OverrideSteersIgpPath) {
  // Triangle topology: R3 normally reaches R2 directly. Make the direct
  // link prohibitively expensive from R3's side; traffic re-routes via R1.
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  auto direct = scenario.network->topology().link_between(scenario.r3, scenario.r2);
  ASSERT_TRUE(direct.has_value());

  scenario.network->apply_config_change(scenario.r3, "raise cost of direct link",
                                        [&](RouterConfig& config) {
                                          config.ospf.cost_override[*direct] = 10;
                                        });
  scenario.network->run_to_convergence();

  const FibEntry* entry = scenario.router3().data_fib().find(scenario.prefix_p);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->action, FibEntry::Action::kForward);
  EXPECT_EQ(entry->next_hop, scenario.r1) << "iBGP next hop now resolves via R1";
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
}

TEST(CaptureImperfections, GuardStillHealsFig2UnderClockImperfections) {
  NetworkOptions options;
  options.capture.clock_offset_us = 1'000;
  options.capture.timestamp_jitter_us = 100;
  auto scenario = PaperScenario::make(options);
  scenario.converge_initial();

  GuardOptions guard_options;
  guard_options.matcher.local_slack_us = 1'000;
  Guard guard(*scenario.network, paper_policies(scenario), guard_options);
  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  guard.run();

  EXPECT_TRUE(scenario.network->configs().record(bad).reverted);
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
}

TEST(CaptureImperfections, LogLossNeverTriggersSpuriousRepairs) {
  // Losing log records can blind a conditional policy (e.g. the uplink's
  // advert never reached the collector, so "preferred exit available" can't
  // be established — the paper's "we may be missing some FIB updates"
  // case). The guard must stay *safe*: no revert of changes it cannot
  // implicate, and no crash.
  NetworkOptions options;
  options.capture.loss_probability = 0.05;
  options.seed = 5;
  auto scenario = PaperScenario::make(options);
  scenario.converge_initial();

  Guard guard(*scenario.network, paper_policies(scenario));
  ConfigVersion benign = scenario.network->apply_config_change(
      scenario.r3, "benign tweak", [](RouterConfig& config) {
        config.bgp.default_local_pref = 100;
      });
  guard.run();
  EXPECT_FALSE(scenario.network->configs().record(benign).reverted);

  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  guard.run();
  // Either the guard implicated and reverted the bad change, or the loss
  // blinded it — but it must never have reverted the benign change.
  EXPECT_FALSE(scenario.network->configs().record(benign).reverted);
  if (scenario.network->configs().record(bad).reverted) {
    EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
  }
}

TEST(CaptureImperfections, LossyLogsForceConservativeRewinds) {
  NetworkOptions options;
  options.capture.loss_probability = 0.15;  // heavy log loss
  options.seed = 77;
  auto scenario = PaperScenario::make(options);
  scenario.converge_initial();

  auto records = scenario.network->capture().records();
  EXPECT_GT(scenario.network->capture().events_lost(), 0u);
  auto hbg = HbgBuilder::build(records, RuleMatchingInference());
  ConsistencyReport report;
  auto snapshot = IncrementalSnapshotter::build({}, records, hbg, {}, &report);
  // With recvs whose sends were lost, the snapshotter must rewind (§5: "we
  // may be missing some FIB updates") rather than pretend completeness.
  EXPECT_GT(report.unmatched_recvs + report.total_rewound(), 0u);
}

TEST(SessionShutdown, DisablingANeighborSessionPartitionsBgp) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();

  // R3 shuts down its session to R2: it must reconverge using only what it
  // hears from R1 (which re-exports nothing for P — iBGP non-transitivity —
  // until R1 itself switches best path).
  scenario.network->apply_config_change(scenario.r3, "shutdown session to R2",
                                        [](RouterConfig& config) {
                                          config.bgp.find_session("ibgp-R2")->enabled = false;
                                        });
  scenario.network->run_to_convergence();

  const FibEntry* entry = scenario.router3().data_fib().find(scenario.prefix_p);
  // R1's best is the iBGP route via R2, which it may not re-advertise to
  // R3 (no reflection configured): R3 loses the route entirely.
  EXPECT_EQ(entry, nullptr) << (entry != nullptr ? entry->describe() : "");
}

TEST(GuardModes, EarlyBlockFallsBackToReactiveOnNovelChanges) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.repair = RepairMode::kEarlyBlock;
  Guard guard(*scenario.network, paper_policies(scenario), options);

  // A change class the model has never seen: handled reactively.
  scenario.misconfigure_r2_lp10();
  guard.run();
  EXPECT_EQ(guard.report().early_reverts, 0u);
  EXPECT_EQ(guard.report().reverts, 1u);
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
}

TEST(Communities, TagAtBorderFilterAtPeer) {
  // R2 tags routes from its uplink with 65000:666; R1 and R3 deny that
  // community on import. R1 then prefers its own untagged uplink and
  // advertises it, giving R3 a usable (untagged) path via R1 even though
  // R2's LP-30 route would otherwise win everywhere.
  auto scenario = PaperScenario::make();
  scenario.network->apply_config_change(scenario.r2, "tag uplink2 routes",
                                        [](RouterConfig& config) {
                                          config.route_maps["lp-uplink2"].clauses.at(0)
                                              .add_communities.push_back(
                                                  make_community(65000, 666));
                                        });
  auto install_filter = [](RouterConfig& config) {
    RouteMap filter;
    filter.name = "no-tagged";
    RouteMapClause deny;
    deny.match_community = make_community(65000, 666);
    deny.action = RouteMapClause::Action::kDeny;
    filter.clauses.push_back(deny);
    config.route_maps["no-tagged"] = std::move(filter);
    config.bgp.find_session("ibgp-R2")->import_policy = "no-tagged";
  };
  scenario.network->apply_config_change(scenario.r1, "deny tagged routes", install_filter);
  scenario.network->apply_config_change(scenario.r3, "deny tagged routes", install_filter);
  scenario.converge_initial();

  // The community must be visible in R3's Adj-RIB-In from R2...
  bool tagged_seen = false;
  for (const BgpRoute& route : scenario.router3().bgp().adj_rib_in("ibgp-R2")) {
    if (route.prefix == scenario.prefix_p) {
      for (std::uint32_t community : route.attrs.communities) {
        if (community == make_community(65000, 666)) tagged_seen = true;
      }
    }
  }
  EXPECT_TRUE(tagged_seen) << "community must propagate across iBGP";

  // ...and the import filter steers R3 to the R1 path even though R2's
  // LP 30 route would otherwise win.
  const FibEntry* entry = scenario.router3().data_fib().find(scenario.prefix_p);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->next_hop, scenario.r1);
}

// ---------------------------------------------------------------------------
// Firewall waypoint (§5's "traffic should never bypass a firewall")

TEST(Firewall, BaselineTrafficPassesTheFirewall) {
  auto scenario = FirewallScenario::make();
  scenario.network->run_to_convergence();
  EXPECT_TRUE(scenario.traffic_passes_firewall());

  auto snapshot = take_instant_snapshot(*scenario.network);
  std::vector<Violation> violations;
  WaypointPolicy(scenario.protected_prefix, scenario.firewall).check(snapshot, violations);
  EXPECT_TRUE(violations.empty());
}

TEST(Firewall, CostMisconfigBypassesAndIsDetected) {
  auto scenario = FirewallScenario::make();
  scenario.network->run_to_convergence();
  scenario.misconfigure_direct_cost();
  scenario.network->run_to_convergence();

  EXPECT_FALSE(scenario.traffic_passes_firewall());
  auto snapshot = take_instant_snapshot(*scenario.network);
  std::vector<Violation> violations;
  WaypointPolicy(scenario.protected_prefix, scenario.firewall).check(snapshot, violations);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].router, scenario.edge);
}

TEST(Firewall, GuardRevertsTheBypass) {
  auto scenario = FirewallScenario::make();
  scenario.network->run_to_convergence();

  PolicyList policies;
  policies.push_back(
      std::make_shared<WaypointPolicy>(scenario.protected_prefix, scenario.firewall));
  policies.push_back(std::make_shared<LoopFreedomPolicy>(scenario.protected_prefix));
  Guard guard(*scenario.network, policies);

  ConfigVersion bypass = scenario.misconfigure_direct_cost();
  auto report = guard.run();

  EXPECT_TRUE(scenario.network->configs().record(bypass).reverted)
      << report.summary();
  EXPECT_TRUE(scenario.traffic_passes_firewall());
  EXPECT_GE(report.reverts, 1u);
}

}  // namespace
}  // namespace hbguard
