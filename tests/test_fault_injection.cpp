// Fault-resilience contract (robustness tentpole).
//
// A FaultInjector drives seeded link flaps, router crash/restart cycles and
// capture-channel outages against a live network while the guard keeps
// scanning. The gates:
//
//   * zero FALSE verdicts — every PASS/FAIL the degraded pipeline emits must
//     be defensible against a fault-free-capture oracle that experienced the
//     identical control-plane faults (incident containment);
//   * full recovery — once streams heal, the guard's verdicts and the
//     network's actual data plane must match the oracle's exactly;
//   * crash/restart round-trips the control plane — a cold-booted router
//     re-converges to the same FIBs it had before the crash.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "fixtures.hpp"
#include "hbguard/core/guard.hpp"
#include "hbguard/fault/injector.hpp"
#include "hbguard/fault/plan.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/naive.hpp"

namespace hbguard {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan.

TEST(FaultPlan, DeterministicForASeed) {
  Rng topo_rng(5);
  Topology topology = make_waxman_topology(8, topo_rng);
  FaultPlanOptions options;
  options.seed = 77;
  FaultPlan a = FaultPlan::random(topology, options);
  FaultPlan b = FaultPlan::random(topology, options);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.describe(), b.describe());

  options.seed = 78;
  FaultPlan c = FaultPlan::random(topology, options);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultPlan, CaptureAndControlSubsetsPartitionThePlan) {
  Rng topo_rng(5);
  Topology topology = make_waxman_topology(8, topo_rng);
  FaultPlanOptions options;
  options.link_flaps = 3;
  options.router_crashes = 2;
  options.capture_outages = 4;
  FaultPlan plan = FaultPlan::random(topology, options);
  EXPECT_EQ(plan.events().size(), 9u);
  FaultPlan capture = plan.capture_only();
  FaultPlan control = plan.control_only();
  EXPECT_EQ(capture.events().size(), 4u);
  EXPECT_EQ(control.events().size(), 5u);
  for (const FaultEvent& event : capture.events()) {
    EXPECT_EQ(event.kind, FaultKind::kCaptureOutage);
  }
  for (const FaultEvent& event : control.events()) {
    EXPECT_NE(event.kind, FaultKind::kCaptureOutage);
  }
}

// ---------------------------------------------------------------------------
// DeliveryChannel: reordered/duplicated delivery, in-order store.

TEST(DeliveryChannel, StoreKeepsPerRouterSeqOrderUnderReordering) {
  Simulator sim;
  CaptureHub hub;
  DeliveryOptions options;
  options.reorder_probability = 0.5;
  options.duplicate_probability = 0.2;
  DeliveryChannel channel(sim, hub, options);
  hub.set_transport(&channel);
  hub.enable_stream_health();
  RouterTap tap0(&hub, 0);
  RouterTap tap1(&hub, 1);

  const int n = 100;
  for (int i = 0; i < n; ++i) {
    sim.schedule_at(i * 100, [&] {
      IoRecord a;
      a.kind = IoKind::kFibUpdate;
      a.true_time = sim.now();
      tap0.record(std::move(a));
      IoRecord b;
      b.kind = IoKind::kRibUpdate;
      b.true_time = sim.now();
      tap1.record(std::move(b));
    });
  }
  sim.run();

  // No outage: every record reaches the store exactly once, in seq order.
  ASSERT_EQ(hub.records().size(), static_cast<std::size_t>(2 * n));
  std::map<RouterId, std::uint64_t> next;
  for (const IoRecord& r : hub.records()) {
    ASSERT_EQ(r.router_seq, next[r.router]) << "router " << r.router;
    ++next[r.router];
  }
  EXPECT_GT(channel.duplicated(), 0u);
  EXPECT_EQ(hub.health()->stats().duplicates_dropped, channel.duplicated());
  EXPECT_GT(hub.health()->stats().reordered, 0u);
  EXPECT_FALSE(hub.health()->any_degraded()) << "all gaps must have healed";
}

TEST(DeliveryChannel, OutageWindowLosesRecordsUntilResync) {
  Simulator sim;
  CaptureHub hub;
  DeliveryOptions options;
  options.jitter_us = 0;
  options.reorder_probability = 0;
  options.duplicate_probability = 0;
  DeliveryChannel channel(sim, hub, options);
  hub.set_transport(&channel);
  StreamHealthOptions health;
  health.gap_grace_us = 10'000;
  hub.enable_stream_health(health);
  RouterTap tap(&hub, 0);

  auto emit = [&](bool fib_reset = false) {
    IoRecord r;
    r.kind = fib_reset ? IoKind::kHardwareStatus : IoKind::kFibUpdate;
    r.fib_reset = fib_reset;
    r.true_time = sim.now();
    tap.record(std::move(r));
  };
  sim.schedule_at(100, [&] { emit(); });
  sim.schedule_at(200, [&] { channel.set_outage(0, true); });
  sim.schedule_at(300, [&] { emit(); });  // eaten by the outage
  sim.schedule_at(400, [&] { emit(); });  // eaten by the outage
  sim.schedule_at(500, [&] { channel.set_outage(0, false); });
  sim.schedule_at(600, [&] { emit(); });  // opens the gap at the hub
  sim.run();
  EXPECT_EQ(channel.dropped(), 2u);
  EXPECT_EQ(hub.health()->state(0), StreamState::kSuspect);

  // Grace expires with the records gone for good: quarantine.
  hub.tick_health(20'000);
  EXPECT_EQ(hub.health()->state(0), StreamState::kQuarantined);
  EXPECT_EQ(hub.health()->stats().records_lost, 2u);

  // The router's resync checkpoint makes the stream trustworthy again.
  sim.schedule_at(21'000, [&] { emit(/*fib_reset=*/true); });
  sim.run();
  EXPECT_EQ(hub.health()->state(0), StreamState::kHealthy);
  EXPECT_EQ(hub.health()->stats().resyncs, 1u);
}

// ---------------------------------------------------------------------------
// Crash/restart round-trip.

TEST(FaultInjection, CrashedRouterReconvergesToItsPreCrashFibs) {
  Rng topo_rng(9);
  NetworkOptions options;
  options.seed = 9;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
  Network& net = *generated.network;
  net.run_to_convergence();
  for (std::size_t i = 0; i < 4; ++i) {
    const UplinkInfo& uplink = generated.uplinks[i % generated.uplinks.size()];
    net.inject_external_advert(uplink.router, uplink.session, churn_prefix(i),
                               {uplink.peer_as, static_cast<AsNumber>(65100 + i)});
  }
  net.run_to_convergence();
  std::string before = content_digest(take_instant_snapshot(net));

  for (RouterId victim : {RouterId{2}, RouterId{5}}) {
    net.crash_router(victim);
    net.run_for(100'000);
    // While down, the victim contributes nothing to the data plane.
    EXPECT_TRUE(take_instant_snapshot(net).routers.at(victim).entries.empty());
    net.restart_router(victim);
    net.run_to_convergence();
    EXPECT_EQ(before, content_digest(take_instant_snapshot(net)))
        << "R" << victim << " did not re-converge to its pre-crash state";
  }
}

// ---------------------------------------------------------------------------
// Guarded runs under a fault plan vs the fault-free-capture oracle.

// loopback_policies, GuardedRun and run_guarded live in fixtures.hpp, shared
// with the traffic-weighted harness.

std::set<std::string> incident_signatures(const GuardReport& report) {
  std::set<std::string> signatures;
  for (const GuardIncident& incident : report.incidents) {
    for (const Violation& violation : incident.violations) {
      signatures.insert(violation.policy + "|" + std::to_string(violation.router));
    }
  }
  return signatures;
}

TEST(FaultInjection, CaptureOnlyFaultsNeverChangeVerdicts) {
  // Outage-only plan: the control plane is untouched, so any incident at
  // all is a false verdict.
  Rng topo_rng(13);
  Topology topology = make_waxman_topology(8, topo_rng);
  FaultPlanOptions plan_options;
  plan_options.link_flaps = 0;
  plan_options.router_crashes = 0;
  plan_options.capture_outages = 3;
  plan_options.seed = 13;
  FaultPlan plan = FaultPlan::random(topology, plan_options);

  GuardedRun oracle = run_guarded(plan, /*faulty=*/false, 1, 13);
  ASSERT_TRUE(oracle.report.incidents.empty())
      << "premise: fault-free run is clean\n" << oracle.report.summary();

  GuardedRun faulty = run_guarded(plan, /*faulty=*/true, 1, 13);
  EXPECT_TRUE(faulty.report.incidents.empty())
      << "capture faults manufactured a verdict:\n" << faulty.report.summary();

  // The outages were actually exercised...
  EXPECT_GT(faulty.report.degrade.gaps, 0u);
  EXPECT_GT(faulty.report.degrade.records_lost, 0u);
  EXPECT_GT(faulty.report.degrade.resyncs, 0u);
  EXPECT_GT(faulty.report.degrade.degraded_scans, 0u);
  EXPECT_GT(faulty.report.degrade.watchdog_fallbacks, 0u);

  // ...and fully recovered from: same final data plane, final PASS, no
  // stream still degraded.
  EXPECT_FALSE(faulty.degraded_at_end);
  EXPECT_EQ(faulty.final_data_plane, oracle.final_data_plane);
  ASSERT_FALSE(faulty.report.scan_verdicts.empty());
  EXPECT_EQ(faulty.report.scan_verdicts.back(), ScanVerdict::kPass);
}

TEST(FaultInjection, FullPlanVerdictsAreContainedInTheOracles) {
  Rng topo_rng(13);
  Topology topology = make_waxman_topology(8, topo_rng);
  FaultPlanOptions plan_options;
  plan_options.seed = 17;
  FaultPlan plan = FaultPlan::random(topology, plan_options);
  ASSERT_FALSE(plan.control_only().empty());
  ASSERT_FALSE(plan.capture_only().empty());

  GuardedRun oracle = run_guarded(plan, /*faulty=*/false, 1, 13);
  GuardedRun faulty = run_guarded(plan, /*faulty=*/true, 1, 13);

  // Zero false verdicts: every (policy, router) the degraded pipeline
  // flagged was also flagged by the oracle that saw a pristine capture of
  // the same control-plane faults.
  std::set<std::string> oracle_signatures = incident_signatures(oracle.report);
  for (const std::string& signature : incident_signatures(faulty.report)) {
    EXPECT_TRUE(oracle_signatures.contains(signature))
        << "false verdict " << signature << " not present in the oracle run\n"
        << "oracle:\n" << oracle.report.summary() << "faulty:\n"
        << faulty.report.summary();
  }

  // Recovery: after the streams heal, both pipelines agree on the world.
  EXPECT_FALSE(faulty.degraded_at_end)
      << faulty.health_states << "\nplan:\n" << plan.describe();
  EXPECT_EQ(faulty.final_data_plane, oracle.final_data_plane);
  ASSERT_FALSE(faulty.report.scan_verdicts.empty());
  ASSERT_EQ(faulty.report.scan_verdicts.size(), oracle.report.scan_verdicts.size());
  EXPECT_EQ(faulty.report.scan_verdicts.back(), oracle.report.scan_verdicts.back());
  EXPECT_NE(faulty.report.scan_verdicts.back(), ScanVerdict::kUnknown);
}

TEST(FaultInjection, LostSendsDoNotRewindHealthyRoutersForever) {
  // Regression: when a capture outage swallows a router's kSendAdvert
  // records for good, the receivers' kRecvAdvert records have no matching
  // send in the HBG *forever*. The happens-before closure used to rewind
  // those (perfectly healthy) receivers past the receive on every scan,
  // freezing their replayed FIBs at the fault epoch — the guard kept
  // reporting a long-healed violation until the end of the run. The
  // lost-send presumption (the snapshotter consults the stream-health lossy
  // set) must keep such receives once the sender's log has moved on.
  Rng topo_rng(13);
  Topology topology = make_waxman_topology(12, topo_rng);
  FaultPlanOptions plan_options;
  plan_options.link_flaps = 3;
  plan_options.router_crashes = 1;
  plan_options.capture_outages = 3;
  plan_options.seed = 17;
  FaultPlan plan = FaultPlan::random(topology, plan_options);

  GuardedRun oracle = run_guarded(plan, /*faulty=*/false, 1, 13, 12, 80);
  GuardedRun faulty = run_guarded(plan, /*faulty=*/true, 1, 13, 12, 80);
  ASSERT_GT(faulty.report.degrade.records_lost, 0u) << "premise: sends were lost";

  // Once the streams heal, the verdict stream must settle back to the
  // oracle's — a verdict stuck on a healed violation is the regression.
  ASSERT_FALSE(faulty.report.scan_verdicts.empty());
  ASSERT_EQ(faulty.report.scan_verdicts.size(), oracle.report.scan_verdicts.size());
  for (std::size_t i = faulty.report.scan_verdicts.size() - 3;
       i < faulty.report.scan_verdicts.size(); ++i) {
    EXPECT_EQ(faulty.report.scan_verdicts[i], oracle.report.scan_verdicts[i])
        << "scan " << i << " disagrees after heal\nfaulty:\n"
        << faulty.report.summary();
  }
  EXPECT_NE(faulty.report.scan_verdicts.back(), ScanVerdict::kUnknown);
}

TEST(FaultInjection, LostSendGraceReachesTheDefaultPipeline) {
  // GuardOptions::snapshot.lost_send_grace_us decides how far a lossy
  // sender's log must run past a receive before its missing send is
  // presumed lost. The default guard must honour it exactly as a guard that
  // rebuilds its HBG and snapshot every scan does: a 60 s grace changes
  // what the default guard concludes from faulty capture, and concludes it
  // identically on both pipelines.
  for (std::uint64_t seed : {13u, 29u}) {
    Rng topo_rng(seed);
    Topology topology = make_waxman_topology(8, topo_rng);
    FaultPlanOptions plan_options;
    plan_options.link_flaps = 2;
    plan_options.router_crashes = 1;
    plan_options.capture_outages = 2;
    plan_options.seed = seed;
    FaultPlan plan = FaultPlan::random(topology, plan_options);

    auto digest = [&](SimTime grace, bool rebuild_every_scan) {
      GuardedRunOptions options;
      options.faulty = true;
      options.seed = seed;
      options.customize = [&](GuardOptions& guard) {
        guard.snapshot.lost_send_grace_us = grace;
        if (rebuild_every_scan) {
          guard.inference = std::make_shared<RuleMatchingInference>(guard.matcher);
        }
      };
      return run_guarded(plan, options).report.digest();
    };
    std::string patient = digest(60'000'000, false);
    EXPECT_NE(patient, digest(10'000, false)) << "seed=" << seed;
    EXPECT_EQ(patient, digest(60'000'000, true)) << "seed=" << seed;
  }
}

TEST(FaultInjection, DegradedRunsAreDeterministicAcrossThreadCounts) {
  Rng topo_rng(13);
  Topology topology = make_waxman_topology(8, topo_rng);
  FaultPlanOptions plan_options;
  plan_options.seed = 17;
  FaultPlan plan = FaultPlan::random(topology, plan_options);

  std::string baseline = run_guarded(plan, /*faulty=*/true, 1, 13).report.digest();
  ASSERT_FALSE(baseline.empty());
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(baseline, run_guarded(plan, /*faulty=*/true, threads, 13).report.digest())
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace hbguard
