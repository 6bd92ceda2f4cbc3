// Incremental snapshot pipeline parity (ISSUE 2 tentpole).
//
// The contract under test: IncrementalSnapshotter fed per-scan record and
// HBG-edge deltas produces a snapshot byte-identical to the one-shot
// IncrementalSnapshotter::build over the full capture history with empty
// horizons — at EVERY scan, not just at convergence, and under the same
// lost-send presumption for known-lossy streams — and a default Guard emits
// a GuardReport byte-identical to one that rebuilds its HBG from the full
// history every scan (and so re-derives each snapshot from record 0), for
// every repair mode and thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "hbguard/core/guard.hpp"
#include "hbguard/daemon/replay_session.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/snapshot/naive.hpp"
#include "hbguard/verify/verifier.hpp"

namespace hbguard {
namespace {

std::string snapshot_digest(const DataPlaneSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [router, view] : snapshot.routers) {
    out << "R" << router << "@" << view.as_of << "\n";
    for (const FibEntry& entry : view.entries) out << "  " << entry.describe() << "\n";
    for (const std::string& session : view.failed_uplinks) out << "  down:" << session << "\n";
    for (const auto& [session, prefixes] : view.uplink_routes) {
      out << "  offer:" << session << ":";
      for (const Prefix& prefix : prefixes) out << prefix.to_string() << ",";
      out << "\n";
    }
  }
  return out.str();
}

PolicyList churn_policies(std::size_t prefix_count) {
  PolicyList policies;
  for (std::size_t i = 0; i < prefix_count; ++i) {
    Prefix p = churn_prefix(i);
    policies.push_back(std::make_shared<LoopFreedomPolicy>(p));
    policies.push_back(std::make_shared<BlackholeFreedomPolicy>(p));
    policies.push_back(std::make_shared<ReachabilityPolicy>(0, p));
  }
  return policies;
}

/// Step `network` in scan-sized slices, maintaining one shared incremental
/// HBG; at every step assert the incremental snapshot equals a scratch
/// rebuild over the full history, both built with `consistency` and the
/// `lossy` stream set. Returns the incremental stats; `digests_out`, when
/// set, receives every scan's snapshot digest.
void expect_snapshot_parity(Network& network, std::size_t steps, SimTime interval,
                            IncrementalSnapshotter::Stats* stats_out,
                            MatcherOptions matcher = {}, ConsistencyOptions consistency = {},
                            const std::set<RouterId>* lossy = nullptr,
                            std::string* digests_out = nullptr) {
  IncrementalHbgBuilder builder(matcher);
  std::size_t hbg_cursor = 0;
  IncrementalSnapshotter incremental(consistency);
  std::size_t cursor = 0;
  std::vector<HbgEdge> edge_delta;

  for (std::size_t step = 0; step < steps; ++step) {
    network.run_for(interval);
    const std::vector<IoRecord>& records = network.capture().records();
    edge_delta.clear();
    builder.append(network.capture().records_since(hbg_cursor), &edge_delta);
    hbg_cursor = records.size();
    const HappensBeforeGraph& hbg = builder.graph();

    ConsistencyReport scratch_report;
    DataPlaneSnapshot scratch_snapshot =
        IncrementalSnapshotter::build(consistency, records, hbg, {}, &scratch_report, lossy);
    ConsistencyReport incremental_report;
    const DataPlaneSnapshot& maintained =
        incremental.ingest(network.capture().records_since(cursor), hbg, edge_delta, nullptr,
                           &incremental_report, lossy);
    cursor = records.size();

    std::string digest = snapshot_digest(maintained);
    ASSERT_EQ(snapshot_digest(scratch_snapshot), digest)
        << "snapshot diverged at scan " << step << " (" << records.size() << " records)";
    ASSERT_EQ(scratch_report.rewound, incremental_report.rewound) << "scan " << step;
    ASSERT_EQ(scratch_report.in_flux, incremental_report.in_flux) << "scan " << step;
    if (digests_out != nullptr) *digests_out += digest;
  }
  EXPECT_EQ(incremental.stats().scans, steps);
  if (stats_out != nullptr) *stats_out = incremental.stats();
}

TEST(IncrementalSnapshot, ParityAtEveryScanUnderChurn) {
  Rng topo_rng(11);
  NetworkOptions options;
  options.seed = 11;
  auto generated = make_ibgp_network(make_waxman_topology(10, topo_rng), 3, options);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.prefix_count = 6;
  churn_options.event_count = 40;
  churn_options.seed = 12;
  ChurnWorkload churn(generated, churn_options);
  ASSERT_GT(churn.scheduled_events(), 0u);

  IncrementalSnapshotter::Stats stats;
  expect_snapshot_parity(*generated.network, 40, 100'000, &stats);
  EXPECT_GT(stats.records_ingested, 0u);
  // The whole point: closure work stays a small multiple of the ingested
  // records, instead of re-walking the full history each of the 40 scans.
  EXPECT_LT(stats.closure_checks, 4 * stats.records_ingested);
}

TEST(IncrementalSnapshot, ParityUnderClockSkewAndLoss) {
  // Rewind-heavy: unsynchronized clocks and lossy logging make the closure
  // exclude records every scan (unmatched receives, causes beyond their
  // router's apparent frontier), and late-arriving edges can target
  // already-validated records. Parity must survive all of it.
  Rng topo_rng(21);
  NetworkOptions options;
  options.seed = 21;
  options.capture.timestamp_jitter_us = 2'000;
  options.capture.clock_offset_us = 40'000;
  options.capture.loss_probability = 0.02;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.event_count = 30;
  churn_options.seed = 22;
  ChurnWorkload churn(generated, churn_options);

  MatcherOptions matcher;
  matcher.local_slack_us = 5'000;  // lets causes be matched after their effects
  IncrementalSnapshotter::Stats stats;
  expect_snapshot_parity(*generated.network, 30, 100'000, &stats, matcher);
  EXPECT_GT(stats.records_ingested, 0u);
}

TEST(IncrementalSnapshot, ParityWithLossyStreamsAtEveryGrace) {
  // The lost-send presumption: a receive whose send is missing is kept when
  // the sender's stream is known-lossy and its log already runs
  // `lost_send_grace_us` past the receive. Drive the maintained and the
  // one-shot snapshot over a jittered trace with capture loss, with every
  // stream declared lossy, at a grace that presumes almost every missing
  // send lost (0), the default (10 ms) and one that presumes almost none
  // (60 s).
  std::map<SimTime, std::string> digests;
  for (SimTime grace : {SimTime{0}, SimTime{10'000}, SimTime{60'000'000}}) {
    Rng topo_rng(61);
    NetworkOptions options;
    options.seed = 61;
    options.capture.timestamp_jitter_us = 1'000;
    options.capture.loss_probability = 0.05;
    auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
    generated.network->run_to_convergence();
    ChurnOptions churn_options;
    churn_options.prefix_count = 4;
    churn_options.event_count = 30;
    churn_options.seed = 62;
    ChurnWorkload churn(generated, churn_options);

    std::set<RouterId> lossy;
    for (RouterId r = 0; r < generated.network->router_count(); ++r) lossy.insert(r);
    MatcherOptions matcher;
    matcher.local_slack_us = 5'000;
    ConsistencyOptions consistency;
    consistency.lost_send_grace_us = grace;
    IncrementalSnapshotter::Stats stats;
    expect_snapshot_parity(*generated.network, 30, 100'000, &stats, matcher, consistency,
                           &lossy, &digests[grace]);
    EXPECT_GT(stats.records_ingested, 0u) << "grace=" << grace;
  }
  // Premise: on this trace each grace keeps a different set of receives.
  EXPECT_NE(digests[0], digests[10'000]);
  EXPECT_NE(digests[10'000], digests[60'000'000]);
}

TEST(IncrementalSnapshot, LateEdgeIntoStableRegionForcesClosureRerun) {
  // Hand-built trace driving the fallback path: scan 1 validates a RIB+FIB
  // pair on router 0; scan 2 delivers an internal receive whose (jittered)
  // timestamp lands just after theirs, so late-cause matching makes it
  // their inferred cause — and it is itself inconsistent (no matching send
  // in the HBG).
  // The closure must then rewind below the previously stable frontier —
  // only a full re-run gets that right, and the snapshotter must detect it.
  Prefix p = *Prefix::parse("198.18.0.0/24");
  MatcherOptions matcher;
  matcher.local_slack_us = 500;
  IncrementalHbgBuilder builder(matcher);
  IncrementalSnapshotter incremental;

  IoRecord rib;
  rib.id = 1;
  rib.router = 0;
  rib.kind = IoKind::kRibUpdate;
  rib.protocol = Protocol::kIbgp;
  rib.prefix = p;
  rib.logged_time = 1'000;
  rib.router_seq = 0;
  IoRecord fib;
  fib.id = 2;
  fib.router = 0;
  fib.kind = IoKind::kFibUpdate;
  fib.protocol = Protocol::kIbgp;
  fib.prefix = p;
  fib.fib_entry = FibEntry{p, FibEntry::Action::kForward, 1, "", Protocol::kIbgp};
  fib.logged_time = 1'010;
  fib.router_seq = 1;
  std::vector<IoRecord> scan1{rib, fib};

  IoRecord recv;
  recv.id = 3;
  recv.router = 0;
  recv.kind = IoKind::kRecvAdvert;
  recv.protocol = Protocol::kIbgp;
  recv.prefix = p;
  recv.peer = 1;  // internal peer: requires a matching send, which never comes
  recv.session = "ibgp1";
  recv.logged_time = 1'020;  // within local_slack after the RIB update
  recv.router_seq = 2;
  std::vector<IoRecord> scan2{recv};

  std::vector<IoRecord> all;
  std::vector<HbgEdge> edges;

  // Scan 1: both records validate; the FIB entry lands in the snapshot.
  builder.append(scan1, &edges);
  all.insert(all.end(), scan1.begin(), scan1.end());
  const DataPlaneSnapshot& after1 =
      incremental.ingest(scan1, builder.graph(), edges, nullptr, nullptr);
  EXPECT_EQ(after1.routers.at(0).entries.size(), 1u);
  EXPECT_EQ(snapshot_digest(IncrementalSnapshotter::build({}, all, builder.graph(), {})),
            snapshot_digest(after1));
  EXPECT_EQ(incremental.stats().closure_fallbacks, 0u);

  // Scan 2: the late receive arrives. Late-cause matching should attach it
  // as the RIB update's cause; the closure must rewind everything.
  edges.clear();
  builder.append(scan2, &edges);
  all.insert(all.end(), scan2.begin(), scan2.end());
  bool has_edge_into_stable = false;
  for (const HbgEdge& edge : edges) {
    if (edge.to == rib.id) has_edge_into_stable = true;
  }
  ASSERT_TRUE(has_edge_into_stable) << "test premise: the engine emits a late cause edge";

  SnapshotDelta delta;
  const DataPlaneSnapshot& after2 =
      incremental.ingest(scan2, builder.graph(), edges, &delta, nullptr);
  EXPECT_EQ(snapshot_digest(IncrementalSnapshotter::build({}, all, builder.graph(), {})),
            snapshot_digest(after2));
  EXPECT_TRUE(after2.routers.at(0).entries.empty())
      << "the FIB entry's whole causal prefix must be rewound";
  EXPECT_EQ(incremental.stats().closure_fallbacks, 1u);
  EXPECT_TRUE(delta.full) << "a rebuild must void the delta";
}

std::string violations_digest(const VerifyResult& result) {
  std::string out;
  for (const Violation& v : result.violations) out += v.describe() + "\n";
  return out;
}

TEST(IncrementalSnapshot, DeltaDrivenVerifyMatchesFullVerify) {
  // A delta that names the one changed prefix must let the verifier reuse
  // the other policies' verdicts, skipping their destinations, while
  // returning identical violations — at one thread and at two.
  Rng topo_rng(31);
  NetworkOptions options;
  options.seed = 31;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
  Network& net = *generated.network;
  net.run_to_convergence();
  for (std::size_t i = 0; i < 4; ++i) {
    const UplinkInfo& uplink = generated.uplinks[i % generated.uplinks.size()];
    net.inject_external_advert(uplink.router, uplink.session, churn_prefix(i),
                               {uplink.peer_as, static_cast<AsNumber>(65100 + i)});
  }
  net.run_to_convergence();
  DataPlaneSnapshot before = take_instant_snapshot(net);

  // Withdraw one prefix: only its destinations are affected.
  const UplinkInfo& uplink = generated.uplinks[0];
  net.inject_external_advert(uplink.router, uplink.session, churn_prefix(0),
                             {uplink.peer_as, 65100}, /*withdraw=*/true);
  net.run_to_convergence();
  DataPlaneSnapshot after = take_instant_snapshot(net);

  for (unsigned threads : {1u, 2u}) {
    VerifierOptions verifier_options;
    verifier_options.num_threads = threads;
    Verifier with_delta(churn_policies(4), verifier_options);
    Verifier without_delta(churn_policies(4), verifier_options);

    ASSERT_EQ(violations_digest(with_delta.verify(before)),
              violations_digest(without_delta.verify(before)));
    SnapshotDelta delta;
    delta.full = false;
    delta.changed_prefixes.push_back(churn_prefix(0));
    VerifyResult delta_result = with_delta.verify(after, &delta);
    VerifyResult full_result = without_delta.verify(after);
    EXPECT_EQ(violations_digest(delta_result), violations_digest(full_result))
        << "threads=" << threads;
    EXPECT_GT(with_delta.stats().delta_skips, 0u)
        << "unaffected destinations must skip re-keying, threads=" << threads;
    EXPECT_EQ(with_delta.stats().reused_policies, 9u)
        << "the three untouched prefixes' policies keep their verdicts, threads=" << threads;
    EXPECT_EQ(without_delta.stats().reused_policies, 0u);
  }
}

TEST(IncrementalSnapshot, PolicyDeferredAcrossADeltaIsReevaluated) {
  // Call 2's plan defers the policy on P while P's only route is
  // withdrawn; call 3 covers it again under a delta naming only Q. Its
  // stored PASS predates a delta it never saw, so it must be re-evaluated
  // (FAIL), not reused.
  const Prefix p = churn_prefix(0);
  const Prefix q = churn_prefix(1);
  PolicyList policies;
  policies.push_back(std::make_shared<ReachabilityPolicy>(0, p));
  policies.push_back(std::make_shared<ReachabilityPolicy>(0, q));
  auto exit_via = [](const Prefix& prefix, const char* session) {
    return FibEntry{prefix, FibEntry::Action::kExternal, kInvalidRouter, session,
                    Protocol::kEbgp};
  };

  for (unsigned threads : {1u, 2u}) {
    DataPlaneSnapshot snapshot;
    snapshot.routers[0].entries = {exit_via(p, "up0"), exit_via(q, "up0")};
    Verifier stream(policies, VerifierOptions{threads});
    ASSERT_TRUE(stream.verify(snapshot).clean());

    SnapshotDelta withdraw_p;
    withdraw_p.full = false;
    withdraw_p.changed_prefixes = {p};
    snapshot.routers[0].entries = {exit_via(q, "up0")};  // p withdrawn
    VerifyPlan only_q;
    only_q.covered = {representative(q).bits()};
    VerifyResult deferred = stream.verify(snapshot, &withdraw_p, &only_q);
    EXPECT_EQ(deferred.deferred_policies, 1u);
    EXPECT_TRUE(deferred.clean());

    SnapshotDelta touch_q;
    touch_q.full = false;
    touch_q.changed_prefixes = {q};
    snapshot.routers[0].entries = {exit_via(q, "up1")};
    VerifyResult resumed = stream.verify(snapshot, &touch_q);
    VerifyResult fresh = Verifier(policies, VerifierOptions{threads}).verify(snapshot);
    EXPECT_FALSE(fresh.clean());
    EXPECT_EQ(violations_digest(resumed), violations_digest(fresh)) << "threads=" << threads;
  }
}

IoRecord hand_record(RouterId router, IoKind kind, const Prefix& prefix) {
  IoRecord record;
  record.router = router;
  record.kind = kind;
  record.protocol = Protocol::kEbgp;
  record.prefix = prefix;
  return record;
}

/// Stamp `record` as the next captured record (id, per-router sequence,
/// time) and append it to both `scan` and `all`.
void append_record(std::vector<IoRecord>& scan, IoRecord record, std::vector<IoRecord>& all) {
  record.id = all.size() + 1;
  record.router_seq = static_cast<std::uint64_t>(std::count_if(
      all.begin(), all.end(), [&](const IoRecord& r) { return r.router == record.router; }));
  record.logged_time = record.true_time = static_cast<SimTime>(1'000 * (all.size() + 1));
  all.push_back(record);
  scan.push_back(record);
}

TEST(IncrementalSnapshot, OfferOnlyChangeFlipsReusedVerdict) {
  // Preferred exit R0/up0, backup R1/up1; both routers forward P out of
  // R1. The scan that only adds (then withdraws) an external offer of P on
  // up0 carries no FIB record, yet it flips the preferred-exit verdict:
  // the offer must enter the delta, or the verifier would reuse the stale
  // PASS. A loop-freedom policy on an untouched prefix is reused.
  const Prefix p = *Prefix::parse("203.0.113.0/24");
  const Prefix q = *Prefix::parse("198.51.100.0/24");
  PolicyList policies;
  policies.push_back(std::make_shared<PreferredExitPolicy>(p, 0, "up0", 1, "up1"));
  policies.push_back(std::make_shared<LoopFreedomPolicy>(q));

  auto fib = [](RouterId router, const Prefix& prefix, FibEntry entry) {
    IoRecord record = hand_record(router, IoKind::kFibUpdate, prefix);
    entry.prefix = prefix;
    entry.source = Protocol::kEbgp;
    record.fib_entry = entry;
    return record;
  };
  auto offer = [](RouterId router, const std::string& session, const Prefix& prefix,
                  bool withdraw) {
    IoRecord record = hand_record(router, IoKind::kRecvAdvert, prefix);
    record.peer = kExternalRouter;
    record.session = session;
    record.withdraw = withdraw;
    return record;
  };
  FibEntry to_r1{Prefix{}, FibEntry::Action::kForward, 1, "", Protocol::kEbgp};
  FibEntry out_up1{Prefix{}, FibEntry::Action::kExternal, kInvalidRouter, "up1",
                   Protocol::kEbgp};

  std::vector<IoRecord> all;
  std::vector<std::vector<IoRecord>> scans(3);
  append_record(scans[0], offer(1, "up1", p, false), all);
  for (const Prefix& prefix : {p, q}) {
    append_record(scans[0], fib(0, prefix, to_r1), all);
    append_record(scans[0], fib(1, prefix, out_up1), all);
  }
  append_record(scans[1], offer(0, "up0", p, false), all);
  append_record(scans[2], offer(0, "up0", p, true), all);

  IncrementalHbgBuilder builder;
  IncrementalSnapshotter snapshotter;
  std::vector<std::unique_ptr<Verifier>> streams;
  for (unsigned threads : {1u, 2u}) {
    streams.push_back(std::make_unique<Verifier>(policies, VerifierOptions{threads}));
  }
  std::vector<bool> clean;
  for (std::size_t scan = 0; scan < scans.size(); ++scan) {
    std::vector<HbgEdge> edges;
    builder.append(scans[scan], &edges);
    SnapshotDelta delta;
    const DataPlaneSnapshot& snapshot =
        snapshotter.ingest(scans[scan], builder.graph(), edges, &delta);
    if (scan > 0) {
      ASSERT_FALSE(delta.full) << "scan " << scan;
      EXPECT_EQ(delta.changed_prefixes, std::vector<Prefix>{p}) << "scan " << scan;
    }
    std::string expected;
    for (std::size_t t = 0; t < streams.size(); ++t) {
      VerifyResult reused = streams[t]->verify(snapshot, &delta);
      VerifyResult fresh = Verifier(policies, VerifierOptions{t == 0 ? 1u : 2u}).verify(snapshot);
      EXPECT_EQ(violations_digest(reused), violations_digest(fresh))
          << "scan " << scan << " thread setting " << t;
      if (t == 0) {
        expected = violations_digest(fresh);
        clean.push_back(fresh.clean());
      }
      EXPECT_EQ(violations_digest(fresh), expected) << "scan " << scan;
    }
  }
  EXPECT_EQ(clean, (std::vector<bool>{true, false, true}))
      << "the offer alone must flip the verdict and flip it back";
  for (const auto& stream : streams) {
    EXPECT_EQ(stream->stats().reused_policies, 2u) << "the loop policy on Q is reused twice";
  }
}

// ---------------------------------------------------------------------------
// End-to-end guard parity: the default incremental pipeline vs one that
// rebuilds every scan, across repair modes and thread counts, on both a
// violation-and-repair scenario and a churn workload.

PolicyList scenario_policies(const PaperScenario& scenario) {
  PolicyList policies;
  policies.push_back(std::make_shared<LoopFreedomPolicy>(scenario.prefix_p));
  policies.push_back(std::make_shared<BlackholeFreedomPolicy>(scenario.prefix_p));
  policies.push_back(std::make_shared<PreferredExitPolicy>(
      scenario.prefix_p, scenario.r2, PaperScenario::kUplink2, scenario.r1,
      PaperScenario::kUplink1));
  return policies;
}

/// The reference pipeline: the same rules, but every scan rebuilds the HBG
/// from the full history and re-derives the snapshot from record 0.
void rebuild_every_scan(GuardOptions& options) {
  options.inference = std::make_shared<RuleMatchingInference>(options.matcher);
}

std::string run_guard_on_scenario(RepairMode mode, unsigned threads, bool incremental) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.repair = mode;
  options.num_threads = threads;
  if (!incremental) rebuild_every_scan(options);
  Guard guard(*scenario.network, scenario_policies(scenario), options);
  scenario.misconfigure_r2_lp10();
  return guard.run().digest();
}

std::string run_guard_on_churn(RepairMode mode, unsigned threads, bool incremental,
                               std::uint64_t seed) {
  Rng topo_rng(seed);
  NetworkOptions options;
  options.seed = seed;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.event_count = 16;
  churn_options.config_change_probability = 0.2;
  churn_options.seed = seed + 1;
  ChurnWorkload churn(generated, churn_options);

  GuardOptions guard_options;
  guard_options.repair = mode;
  guard_options.num_threads = threads;
  if (!incremental) rebuild_every_scan(guard_options);
  Guard guard(*generated.network, churn_policies(churn_options.prefix_count), guard_options);
  return guard.run().digest();
}

TEST(IncrementalSnapshot, GuardReportParityAllModesAndThreads) {
  for (RepairMode mode : {RepairMode::kReport, RepairMode::kBlock, RepairMode::kRevert,
                          RepairMode::kEarlyBlock}) {
    std::string baseline = run_guard_on_scenario(mode, 1, /*incremental=*/false);
    ASSERT_FALSE(baseline.empty());
    for (unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(baseline, run_guard_on_scenario(mode, threads, /*incremental=*/true))
          << "mode=" << to_string(mode) << " threads=" << threads;
    }
    EXPECT_EQ(baseline, run_guard_on_scenario(mode, 8, /*incremental=*/false))
        << "mode=" << to_string(mode) << " rebuild threads=8";
  }
}

TEST(IncrementalSnapshot, GuardReportParityUnderChurn) {
  for (RepairMode mode : {RepairMode::kReport, RepairMode::kRevert, RepairMode::kEarlyBlock}) {
    std::string baseline = run_guard_on_churn(mode, 1, /*incremental=*/false, 41);
    for (unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(baseline, run_guard_on_churn(mode, threads, /*incremental=*/true, 41))
          << "mode=" << to_string(mode) << " threads=" << threads;
    }
  }
}

std::string run_guard_on_lossy_churn(unsigned threads, bool incremental, std::uint64_t seed) {
  Rng topo_rng(seed);
  NetworkOptions options;
  options.seed = seed;
  options.capture.timestamp_jitter_us = 1'000;
  options.capture.loss_probability = 0.05;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.event_count = 16;
  churn_options.config_change_probability = 0.2;
  churn_options.seed = seed + 1;
  ChurnWorkload churn(generated, churn_options);

  GuardOptions guard_options;
  guard_options.num_threads = threads;
  guard_options.matcher.local_slack_us = 5'000;
  if (!incremental) rebuild_every_scan(guard_options);
  Guard guard(*generated.network, churn_policies(churn_options.prefix_count), guard_options);
  return guard.run().digest();
}

TEST(IncrementalSnapshot, GuardReportParityUnderCaptureLoss) {
  // Hub-level record loss (loss_probability > 0) punches seq gaps into the
  // store itself. Whatever the guard concludes from that imperfect history,
  // it must conclude identically at every thread count, rebuilt every scan
  // or incremental — loss is in the data, not in the pipeline.
  std::string baseline = run_guard_on_lossy_churn(1, /*incremental=*/false, 53);
  ASSERT_FALSE(baseline.empty());
  for (unsigned threads : {1u, 2u, 8u}) {
    EXPECT_EQ(baseline, run_guard_on_lossy_churn(threads, /*incremental=*/true, 53))
        << "threads=" << threads;
    EXPECT_EQ(baseline, run_guard_on_lossy_churn(threads, /*incremental=*/false, 53))
        << "rebuild threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Table-scale parity: full-table FIB churn replayed through the daemon's
// session. Reachability from R0 fails whenever churn leaves R0 without a
// covering route and passes again once one returns, so verdicts flip from
// scan to scan and a wrongly reused one would move the digest.

constexpr std::size_t kTableHotPrefixes = 16;
constexpr std::size_t kTableReachPrefixes = 2;

std::vector<IoRecord> table_churn_trace() {
  FullTableChurnOptions options;
  options.prefix_count = 1u << 12;
  options.churn_records = 3'000;
  options.router_count = 16;
  options.seed = 1;  // R0's hot routes come and go several times
  std::vector<IoRecord> records;
  generate_full_table_churn(options, [&](const IoRecord& r) { records.push_back(r); });
  return records;
}

GuardReport run_table_guard(const std::vector<IoRecord>& records, unsigned threads,
                            bool incremental, std::size_t max_items) {
  ReplaySessionOptions options;
  options.guard.repair = RepairMode::kProposeOnly;
  options.guard.num_threads = threads;
  if (max_items > 0) {
    options.guard.traffic.enabled = true;
    options.guard.traffic.max_items = max_items;
  }
  if (!incremental) rebuild_every_scan(options.guard);
  options.scan_every_us = 10'000;
  for (std::size_t i = 0; i < kTableHotPrefixes; ++i) {
    Prefix p = full_table_prefix(i);
    options.policies.push_back(std::make_shared<LoopFreedomPolicy>(p));
    options.policies.push_back(std::make_shared<BlackholeFreedomPolicy>(p));
    if (i < kTableReachPrefixes) {
      options.policies.push_back(std::make_shared<ReachabilityPolicy>(0, p));
    }
  }
  return ReplayGuardSession::run_offline(records, options);
}

TEST(IncrementalSnapshot, TableScaleGuardParityWithFlippingVerdicts) {
  std::vector<IoRecord> records = table_churn_trace();
  // Unbudgeted, then with a scan budget that defers most destinations, so
  // deferred policies come back with stale verdict stamps.
  for (std::size_t max_items : {std::size_t{0}, std::size_t{6}}) {
    GuardReport baseline = run_table_guard(records, 1, /*incremental=*/false, max_items);
    const std::vector<ScanVerdict>& verdicts = baseline.scan_verdicts;
    auto count = [&](ScanVerdict v) { return std::count(verdicts.begin(), verdicts.end(), v); };
    EXPECT_GT(count(ScanVerdict::kFail), 0) << "max_items=" << max_items;
    EXPECT_GT(count(max_items > 0 ? ScanVerdict::kDeferred : ScanVerdict::kPass), 0)
        << "max_items=" << max_items;
    for (unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(baseline.digest(),
                run_table_guard(records, threads, /*incremental=*/true, max_items).digest())
          << "max_items=" << max_items << " threads=" << threads;
    }
    EXPECT_EQ(baseline.digest(),
              run_table_guard(records, 8, /*incremental=*/false, max_items).digest())
        << "max_items=" << max_items << " rebuild threads=8";
  }
}

}  // namespace
}  // namespace hbguard
