#include <gtest/gtest.h>

#include "hbguard/sim/network.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "record_index.hpp"

namespace hbguard {
namespace {

TEST(PaperScenario, ConvergesToPreferredExitViaR2) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();

  // Fig. 1b end state: R2 exits via its uplink; R1 and R3 forward to R2.
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r2, scenario.r2));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));

  const FibEntry* r2_entry = scenario.router2().data_fib().find(scenario.prefix_p);
  ASSERT_NE(r2_entry, nullptr);
  EXPECT_EQ(r2_entry->action, FibEntry::Action::kExternal);
  EXPECT_EQ(r2_entry->external_session, PaperScenario::kUplink2);
}

TEST(PaperScenario, Fig1aOnlyR1RouteUsesR1) {
  auto scenario = PaperScenario::make();
  scenario.network->run_to_convergence();
  scenario.advertise_p_via_r1();
  scenario.network->run_to_convergence();

  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r2, scenario.r1));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r1));
}

TEST(PaperScenario, Fig1bArrivalOfBetterRouteShiftsExit) {
  auto scenario = PaperScenario::make();
  scenario.network->run_to_convergence();
  scenario.advertise_p_via_r1();
  scenario.network->run_to_convergence();
  scenario.advertise_p_via_r2();
  scenario.network->run_to_convergence();

  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
}

TEST(PaperScenario, Fig2MisconfigurationShiftsExitToR1) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  // Policy violated: R2's uplink is still up, but traffic exits via R1.
  EXPECT_TRUE(scenario.router2().uplink_up(PaperScenario::kUplink2));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r2, scenario.r1));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r1));
}

TEST(PaperScenario, Feasibility7Lp200OnR1) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.reconfigure_r1_lp200();
  scenario.network->run_to_convergence();

  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r2, scenario.r1));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r1));
}

TEST(PaperScenario, UplinkFailureFailsOverToR1) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.fail_uplink2();
  scenario.network->run_to_convergence();

  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r2, scenario.r1));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r1));

  scenario.restore_uplink2();
  scenario.advertise_p_via_r2();
  scenario.network->run_to_convergence();
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));
}

TEST(PaperScenario, WithdrawalRemovesRoutesEverywhere) {
  auto scenario = PaperScenario::make();
  scenario.network->run_to_convergence();
  scenario.advertise_p_via_r2();
  scenario.network->run_to_convergence();
  scenario.withdraw_p_via_r2();
  scenario.network->run_to_convergence();

  EXPECT_EQ(scenario.router1().data_fib().find(scenario.prefix_p), nullptr);
  EXPECT_EQ(scenario.router2().data_fib().find(scenario.prefix_p), nullptr);
  EXPECT_EQ(scenario.router3().data_fib().find(scenario.prefix_p), nullptr);
}

TEST(PaperScenario, LinkFailureReroutesIbgpTraffic) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  // Fail the R3-R2 link: R3 must still reach the R2 exit, now via R1.
  auto link = scenario.network->topology().link_between(scenario.r3, scenario.r2);
  ASSERT_TRUE(link.has_value());
  scenario.network->set_link_state(*link, false);
  scenario.network->run_to_convergence();

  const FibEntry* r3_entry = scenario.router3().data_fib().find(scenario.prefix_p);
  ASSERT_NE(r3_entry, nullptr);
  EXPECT_EQ(r3_entry->action, FibEntry::Action::kForward);
  EXPECT_EQ(r3_entry->next_hop, scenario.r1);
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
}

TEST(PaperScenario, CaptureStreamIsCausallyConsistent) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();

  const auto& records = scenario.network->capture().records();
  ASSERT_FALSE(records.empty());
  RecordIndex index(records);

  std::set<IoId> seen;
  bool found_fib = false, found_send = false, found_recv = false;
  for (const IoRecord& r : records) {
    // Causes reference strictly earlier records.
    for (IoId cause : r.true_causes) {
      EXPECT_LT(cause, r.id);
      const IoRecord* parent = index.find(cause);
      ASSERT_NE(parent, nullptr);
      EXPECT_LE(parent->true_time, r.true_time)
          << parent->describe() << " -> " << r.describe();
    }
    seen.insert(r.id);
    found_fib |= r.kind == IoKind::kFibUpdate;
    found_send |= r.kind == IoKind::kSendAdvert;
    found_recv |= r.kind == IoKind::kRecvAdvert;
    // Outputs always have at least one cause; config/hardware inputs none.
    if (!r.input()) {
      EXPECT_FALSE(r.true_causes.empty()) << r.describe();
    }
  }
  EXPECT_TRUE(found_fib);
  EXPECT_TRUE(found_send);
  EXPECT_TRUE(found_recv);
}

TEST(PaperScenario, RecvAdvertsLinkBackToSends) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();

  const CaptureHub& hub = scenario.network->capture();
  RecordIndex index(hub.records());
  std::size_t internal_recvs = 0;
  for (const IoRecord& r : hub.records()) {
    if (r.kind != IoKind::kRecvAdvert || r.peer == kExternalRouter) continue;
    ++internal_recvs;
    ASSERT_NE(r.message_id, 0u) << r.describe();
    const IoRecord* send = index.find(r.message_id);
    ASSERT_NE(send, nullptr);
    EXPECT_EQ(send->kind, IoKind::kSendAdvert);
    EXPECT_EQ(send->peer, r.router);
    if (send->prefix && r.prefix) EXPECT_EQ(*send->prefix, *r.prefix);
  }
  EXPECT_GT(internal_recvs, 0u);
}

TEST(PaperScenario, ExternalAdvertsAreProvenanceLeaves) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  bool found = false;
  for (const IoRecord& r : scenario.network->capture().records()) {
    if (r.kind == IoKind::kRecvAdvert && r.peer == kExternalRouter) {
      EXPECT_TRUE(r.true_causes.empty());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PaperScenario, DeterministicReplay) {
  auto run = [] {
    auto scenario = PaperScenario::make();
    scenario.converge_initial();
    scenario.misconfigure_r2_lp10();
    scenario.network->run_to_convergence();
    std::vector<std::tuple<IoId, RouterId, SimTime, std::string>> trace;
    for (const IoRecord& r : scenario.network->capture().records()) {
      trace.emplace_back(r.id, r.router, r.true_time, r.describe());
    }
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(PaperScenario, SoftReconfigDelayDefersDecision) {
  NetworkOptions options;
  auto scenario = PaperScenario::make(options);
  // Give R2 a 20 s soft-reconfiguration delay, as observed in §7.
  scenario.network->apply_config_change(scenario.r2, "enable slow soft reconfiguration",
                                        [](RouterConfig& config) {
                                          config.bgp.quirks.soft_reconfig_delay_us = 20'000'000;
                                        });
  scenario.converge_initial();
  SimTime before = scenario.network->sim().now();
  scenario.misconfigure_r2_lp10();
  // Shortly after the change nothing has moved yet (decision deferred).
  scenario.network->run_for(1'000'000);
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));
  scenario.network->run_to_convergence();
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));
  EXPECT_GE(scenario.network->sim().now(), before + 20'000'000);
}

TEST(PaperScenario, FibInterceptorBlocksDataPlaneOnly) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();

  // Block every subsequent FIB change on R1 (the §2 strawman).
  scenario.router1().set_fib_interceptor(
      [&](RouterId router, const Prefix&, const FibEntry*) { return router != scenario.r1; });
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  // Control plane moved to R1-exit; R1's data plane still points at R2.
  const FibEntry* control = scenario.router1().control_fib().find(scenario.prefix_p);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->action, FibEntry::Action::kExternal);
  const FibEntry* data = scenario.router1().data_fib().find(scenario.prefix_p);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->action, FibEntry::Action::kForward);
  EXPECT_EQ(data->next_hop, scenario.r2);
}

// ---------------------------------------------------------------------------
// Generated networks & workloads

TEST(Workload, TopologyGenerators) {
  EXPECT_EQ(make_chain_topology(5).link_count(), 4u);
  EXPECT_EQ(make_ring_topology(5).link_count(), 5u);
  EXPECT_EQ(make_full_mesh_topology(5).link_count(), 10u);
  Rng rng(1);
  Topology random = make_random_topology(10, 5, rng);
  EXPECT_EQ(random.router_count(), 10u);
  EXPECT_EQ(random.link_count(), 14u);  // 9 tree + 5 extra
}

TEST(Workload, GeneratedNetworkConvergesAndRoutes) {
  Rng rng(3);
  auto generated = make_ibgp_network(make_random_topology(8, 4, rng), 2);
  generated.network->run_to_convergence();

  // Advertise a prefix at the preferred uplink (uplink1, LP 110).
  Prefix p = churn_prefix(0);
  const UplinkInfo& uplink = generated.uplinks[1];
  generated.network->inject_external_advert(uplink.router, uplink.session, p,
                                            {uplink.peer_as, 65100});
  generated.network->run_to_convergence();

  // Every router must have a FIB entry for p leading to uplink.router.
  for (std::size_t i = 0; i < generated.network->router_count(); ++i) {
    const FibEntry* entry =
        generated.network->router(static_cast<RouterId>(i)).data_fib().find(p);
    ASSERT_NE(entry, nullptr) << "router " << i << " missing route";
  }
  const FibEntry* exit_entry =
      generated.network->router(uplink.router).data_fib().find(p);
  EXPECT_EQ(exit_entry->action, FibEntry::Action::kExternal);
}

TEST(Workload, ChurnRunsToCompletion) {
  Rng rng(5);
  auto generated = make_ibgp_network(make_random_topology(6, 3, rng), 2);
  generated.network->run_to_convergence();

  ChurnOptions options;
  options.prefix_count = 4;
  options.event_count = 30;
  ChurnWorkload churn(generated, options);
  EXPECT_EQ(churn.scheduled_events(), 30u);
  generated.network->run_to_convergence();

  // The capture stream grew substantially and stays causally ordered.
  const auto& records = generated.network->capture().records();
  EXPECT_GT(records.size(), 100u);
  for (const IoRecord& r : records) {
    for (IoId cause : r.true_causes) EXPECT_LT(cause, r.id);
  }
}

TEST(Workload, OspfReconvergesAfterLinkFlap) {
  auto generated = make_ibgp_network(make_ring_topology(6), 1);
  Network& net = *generated.network;
  net.run_to_convergence();

  // All routers can reach each other's loopbacks around the ring.
  const FibEntry* before = net.router(3).data_fib().find(loopback_prefix(0));
  ASSERT_NE(before, nullptr);

  net.set_link_state(0, false);  // break link R1-R2 (ids 0-1)
  net.run_to_convergence();
  const FibEntry* after = net.router(1).data_fib().find(loopback_prefix(0));
  ASSERT_NE(after, nullptr);
  // Router 1 must now reach router 0 the long way round (via router 2).
  EXPECT_EQ(after->action, FibEntry::Action::kForward);
  EXPECT_EQ(after->next_hop, 2u);

  net.set_link_state(0, true);
  net.run_to_convergence();
  const FibEntry* restored = net.router(1).data_fib().find(loopback_prefix(0));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->next_hop, 0u);
}

// ---------------------------------------------------------------------------
// Route reflection (RFC 4456 extension: no iBGP full mesh)

TEST(RouteReflection, SpokesLearnRoutesThroughReflector) {
  auto generated = make_route_reflector_network(4, 1);
  Network& net = *generated.network;
  net.run_to_convergence();

  Prefix p = churn_prefix(0);
  const UplinkInfo& uplink = generated.uplinks[0];  // on spoke S1 (router 1)
  net.inject_external_advert(uplink.router, uplink.session, p, {uplink.peer_as, 65100});
  net.run_to_convergence();

  // Every spoke (peering only with the reflector) must have the route.
  for (RouterId r = 0; r < static_cast<RouterId>(net.router_count()); ++r) {
    const FibEntry* entry = net.router(r).data_fib().find(p);
    ASSERT_NE(entry, nullptr) << "router " << r << " missing reflected route";
    if (r == uplink.router) {
      EXPECT_EQ(entry->action, FibEntry::Action::kExternal);
    } else {
      // All traffic funnels through the star toward the exit spoke.
      EXPECT_EQ(entry->action, FibEntry::Action::kForward);
    }
  }
  // The reflector forwards to the exit spoke directly.
  EXPECT_EQ(net.router(0).data_fib().find(p)->next_hop, uplink.router);
}

TEST(RouteReflection, ReflectorPreservesNextHop) {
  auto generated = make_route_reflector_network(3, 1);
  Network& net = *generated.network;
  net.run_to_convergence();
  Prefix p = churn_prefix(1);
  const UplinkInfo& uplink = generated.uplinks[0];
  net.inject_external_advert(uplink.router, uplink.session, p, {uplink.peer_as, 65100});
  net.run_to_convergence();

  // A non-exit spoke's BGP route must carry the exit spoke as next hop
  // (the reflector did not rewrite it to itself).
  const LocRibEntry* entry = net.router(3).bgp().loc_rib_entry(p);
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->route.attrs.next_hop.external);
  EXPECT_EQ(entry->route.attrs.next_hop.router, uplink.router);
  // And the reflection metadata is stamped.
  EXPECT_EQ(entry->route.attrs.originator, uplink.router);
  ASSERT_EQ(entry->route.attrs.cluster_list.size(), 1u);
  EXPECT_EQ(entry->route.attrs.cluster_list[0], 0u);  // the reflector
}

TEST(RouteReflection, WithdrawPropagatesThroughReflector) {
  auto generated = make_route_reflector_network(4, 1);
  Network& net = *generated.network;
  net.run_to_convergence();
  Prefix p = churn_prefix(2);
  const UplinkInfo& uplink = generated.uplinks[0];
  net.inject_external_advert(uplink.router, uplink.session, p, {uplink.peer_as, 65100});
  net.run_to_convergence();
  ASSERT_NE(net.router(4).data_fib().find(p), nullptr);

  net.inject_external_advert(uplink.router, uplink.session, p, {}, /*withdraw=*/true);
  net.run_to_convergence();
  for (RouterId r = 0; r < static_cast<RouterId>(net.router_count()); ++r) {
    EXPECT_EQ(net.router(r).data_fib().find(p), nullptr) << "router " << r;
  }
}

TEST(RouteReflection, PreferredUplinkWinsAcrossClients) {
  // Two uplinks on different spokes; LP 110 (uplink1) beats LP 100
  // (uplink0). With reflection, every spoke converges on the better exit.
  auto generated = make_route_reflector_network(4, 2);
  Network& net = *generated.network;
  net.run_to_convergence();
  Prefix p = churn_prefix(3);
  for (const UplinkInfo& uplink : generated.uplinks) {
    net.inject_external_advert(uplink.router, uplink.session, p, {uplink.peer_as, 65100});
  }
  net.run_to_convergence();

  RouterId preferred_exit = generated.uplinks[1].router;
  const FibEntry* exit_entry = net.router(preferred_exit).data_fib().find(p);
  ASSERT_NE(exit_entry, nullptr);
  EXPECT_EQ(exit_entry->action, FibEntry::Action::kExternal);
  // The other uplink spoke routes across the star to the preferred exit.
  RouterId other = generated.uplinks[0].router;
  const FibEntry* other_entry = net.router(other).data_fib().find(p);
  ASSERT_NE(other_entry, nullptr);
  EXPECT_EQ(other_entry->action, FibEntry::Action::kForward);
  EXPECT_EQ(other_entry->next_hop, 0u);  // via the hub
}

}  // namespace
}  // namespace hbguard
