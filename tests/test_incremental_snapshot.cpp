// Incremental snapshot pipeline parity (ISSUE 2 tentpole).
//
// The contract under test: IncrementalSnapshotter fed per-scan record and
// HBG-edge deltas produces a snapshot byte-identical to
// ConsistentSnapshotter::build over the full capture history with empty
// horizons — at EVERY scan, not just at convergence, and under the same
// lost-send presumption for known-lossy streams — and a default Guard emits
// a GuardReport byte-identical to one that rebuilds its HBG from the full
// history every scan (and so re-derives each snapshot from record 0), for
// every repair mode and thread count.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "hbguard/core/guard.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/consistent.hpp"
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
  ConsistentSnapshotter scratch({consistency, 1});
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
        scratch.build(records, hbg, {}, &scratch_report, lossy);
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
  // The two snapshotters implement the lost-send presumption separately: a
  // receive whose send is missing is kept when the sender's stream is
  // known-lossy and its log already runs `lost_send_grace_us` past the
  // receive. Drive both over a jittered trace with capture loss, with every
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
  ConsistentSnapshotter scratch;
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
  EXPECT_EQ(snapshot_digest(scratch.build(all, builder.graph(), {})), snapshot_digest(after1));
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
  EXPECT_EQ(snapshot_digest(scratch.build(all, builder.graph(), {})), snapshot_digest(after2));
  EXPECT_TRUE(after2.routers.at(0).entries.empty())
      << "the FIB entry's whole causal prefix must be rewound";
  EXPECT_EQ(incremental.stats().closure_fallbacks, 1u);
  EXPECT_TRUE(delta.full) << "a rebuild must void the delta";
}

TEST(IncrementalSnapshot, DeltaDrivenVerifyMatchesFullVerify) {
  // A delta that names the one changed prefix must let the verifier skip
  // re-keying the others while returning identical violations.
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

  VerifierOptions verifier_options;
  verifier_options.num_threads = 2;
  Verifier with_delta(churn_policies(4), verifier_options);
  Verifier without_delta(churn_policies(4), verifier_options);

  auto digest = [](const VerifyResult& result) {
    std::string out;
    for (const Violation& v : result.violations) out += v.describe() + "\n";
    return out;
  };

  ASSERT_EQ(digest(with_delta.verify(before)), digest(without_delta.verify(before)));
  SnapshotDelta delta;
  delta.full = false;
  delta.changed_prefixes.insert(churn_prefix(0));
  VerifyResult delta_result = with_delta.verify(after, &delta);
  VerifyResult full_result = without_delta.verify(after);
  EXPECT_EQ(digest(delta_result), digest(full_result));
  EXPECT_GT(with_delta.stats().delta_skips, 0u)
      << "unaffected destinations must skip re-keying";
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

}  // namespace
}  // namespace hbguard
