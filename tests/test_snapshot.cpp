#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <sstream>

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/snapshot/naive.hpp"
#include "hbguard/verify/verifier.hpp"

#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/util/rng.hpp"

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

TEST(InstantSnapshot, MatchesDataFibs) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  auto snapshot = take_instant_snapshot(*scenario.network);

  ASSERT_EQ(snapshot.routers.size(), 3u);
  const FibEntry* entry = snapshot.lookup(scenario.r2, representative(scenario.prefix_p));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->action, FibEntry::Action::kExternal);
  EXPECT_EQ(snapshot.all_prefixes().size(),
            scenario.router2().data_fib().entries().size() > 0 ? 4u : 0u);  // 3 loopbacks + P
}

TEST(InstantSnapshot, UplinkStateTracked) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.fail_uplink2();
  scenario.network->run_to_convergence();
  auto snapshot = take_instant_snapshot(*scenario.network);
  EXPECT_FALSE(snapshot.uplink_up(scenario.r2, PaperScenario::kUplink2));
  EXPECT_TRUE(snapshot.uplink_up(scenario.r1, PaperScenario::kUplink1));
}

TEST(NaiveSnapshot, ZeroSkewEqualsInstant) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  NaiveSnapshotter snapshotter(*scenario.network, 0);
  snapshotter.request();
  scenario.network->run_for(1);
  ASSERT_TRUE(snapshotter.complete());

  auto truth = take_instant_snapshot(*scenario.network);
  for (const auto& [router, view] : truth.routers) {
    EXPECT_EQ(snapshotter.result().routers.at(router).entries, view.entries);
  }
}

TEST(NaiveSnapshot, SkewedSamplingDuringChurnDiverges) {
  // Fig. 1c: a snapshot taken while the Fig. 1b update propagates can show
  // a state no packet would ever encounter.
  auto scenario = PaperScenario::make();
  scenario.network->run_to_convergence();
  scenario.advertise_p_via_r1();
  scenario.network->run_to_convergence();

  // Kick off the better route via R2 and sample while it propagates.
  scenario.advertise_p_via_r2();
  NaiveSnapshotter snapshotter(*scenario.network, 60'000, /*seed=*/3);
  snapshotter.request();
  scenario.network->run_to_convergence();
  ASSERT_TRUE(snapshotter.complete());

  // The skewed views have per-router timestamps spanning a window.
  SimTime min_t = Simulator::kForever, max_t = 0;
  for (const auto& [router, view] : snapshotter.result().routers) {
    min_t = std::min(min_t, view.as_of);
    max_t = std::max(max_t, view.as_of);
  }
  EXPECT_GT(max_t, min_t);
}

// ---------------------------------------------------------------------------
// One-shot consistent snapshots (IncrementalSnapshotter::build)

class ConsistentFixture : public ::testing::Test {
 protected:
  ConsistentFixture() : scenario_(PaperScenario::make()) {}

  HappensBeforeGraph build_hbg() {
    return HbgBuilder::build(scenario_.network->capture().records(), RuleMatchingInference());
  }

  DataPlaneSnapshot build(std::span<const IoRecord> records, const HappensBeforeGraph& hbg,
                          const std::map<RouterId, SimTime>& horizons,
                          ConsistencyReport* report = nullptr) {
    return IncrementalSnapshotter::build({}, records, hbg, horizons, report);
  }

  PaperScenario scenario_;
};

TEST_F(ConsistentFixture, FullHorizonMatchesFinalState) {
  scenario_.converge_initial();
  auto hbg = build_hbg();
  ConsistencyReport report;
  auto snapshot = build(scenario_.network->capture().records(), hbg, {}, &report);

  auto truth = take_instant_snapshot(*scenario_.network);
  for (const auto& [router, view] : truth.routers) {
    EXPECT_EQ(snapshot.routers.at(router).entries, view.entries) << "router " << router;
  }
  EXPECT_EQ(report.total_rewound(), 0u);
}

TEST_F(ConsistentFixture, GroundTruthHbgAlsoReplaysCleanly) {
  scenario_.converge_initial();
  scenario_.misconfigure_r2_lp10();
  scenario_.network->run_to_convergence();
  auto hbg = HbgBuilder::build(scenario_.network->capture().records(), GroundTruthInference());
  auto snapshot = build(scenario_.network->capture().records(), hbg, {});
  auto truth = take_instant_snapshot(*scenario_.network);
  for (const auto& [router, view] : truth.routers) {
    EXPECT_EQ(snapshot.routers.at(router).entries, view.entries);
  }
}

TEST_F(ConsistentFixture, StaleRouterForcesRewindOfDependents) {
  // Reproduce the §7 inconsistency: the verifier has everything from R2/R3
  // but R1's log stops before it processed the new route. A FIB entry at
  // R3 pointing via R1's advertisement must not be included.
  scenario_.network->run_to_convergence();
  scenario_.advertise_p_via_r1();
  scenario_.network->run_to_convergence();
  SimTime before_r2 = scenario_.network->sim().now();
  scenario_.advertise_p_via_r2();
  scenario_.network->run_to_convergence();

  auto records = scenario_.network->capture().records();
  auto hbg = build_hbg();

  // R2's log is only available up to just before it processed the new
  // advertisement; other routers report in full.
  std::map<RouterId, SimTime> horizons{{scenario_.r2, before_r2}};
  ConsistencyReport report;
  auto snapshot = build(records, hbg, horizons, &report);

  // Consistency: if R1/R3's FIBs still pointed at R2's new route while R2's
  // snapshot predates it, the verifier would see a state no packet
  // encounters. The rewind must push R1 and R3 back before their switch to
  // the R2 route.
  EXPECT_GT(report.total_rewound(), 0u);
  const FibEntry* r1_entry = snapshot.lookup(scenario_.r1, representative(scenario_.prefix_p));
  ASSERT_NE(r1_entry, nullptr);
  EXPECT_EQ(r1_entry->action, FibEntry::Action::kExternal)
      << "R1 must still show its own uplink route, matching R2's stale view";

  // And the combined snapshot must be verifiably sane: no loops/blackholes.
  Verifier verifier({std::make_shared<LoopFreedomPolicy>(scenario_.prefix_p),
                     std::make_shared<BlackholeFreedomPolicy>(scenario_.prefix_p)});
  EXPECT_TRUE(verifier.verify(snapshot).clean());
}

TEST_F(ConsistentFixture, NaiveSnapshotSameScenarioSeesPhantomState) {
  // Companion to the above: with the same staleness, a naive assembler
  // that just takes each router's latest reported FIB yields a state where
  // R1 and R3 forward to R2 while R2 still forwards to R1 — the Fig. 1c
  // phantom loop.
  scenario_.network->run_to_convergence();
  scenario_.advertise_p_via_r1();
  scenario_.network->run_to_convergence();
  SimTime before_r2 = scenario_.network->sim().now();
  scenario_.advertise_p_via_r2();
  scenario_.network->run_to_convergence();

  auto records = scenario_.network->capture().records();
  // Naive assembly: replay ALL reported FIB updates per router up to its
  // horizon with no consistency check == a one-shot build with the
  // closure disabled. Emulate by replaying manually.
  std::map<RouterId, SimTime> horizons{{scenario_.r2, before_r2}};
  DataPlaneSnapshot naive;
  for (const IoRecord& r : records) {
    auto& view = naive.routers[r.router];
    SimTime horizon = horizons.contains(r.router) ? horizons[r.router] : Simulator::kForever;
    if (r.logged_time > horizon || r.kind != IoKind::kFibUpdate || r.fib_blocked) continue;
    Fib fib;
    for (const FibEntry& e : view.entries) fib.install(e);
    if (r.withdraw) {
      if (r.prefix) fib.remove(*r.prefix);
    } else if (r.fib_entry) {
      fib.install(*r.fib_entry);
    }
    view.entries = FibTable(fib.entries());
  }

  Verifier verifier({std::make_shared<LoopFreedomPolicy>(scenario_.prefix_p)});
  auto result = verifier.verify(naive);
  EXPECT_FALSE(result.clean()) << "naive assembly should exhibit the phantom R1<->R2 loop";
}

TEST_F(ConsistentFixture, DetectsViolationWithFullData) {
  scenario_.converge_initial();
  scenario_.misconfigure_r2_lp10();
  scenario_.network->run_to_convergence();

  auto hbg = build_hbg();
  auto snapshot = build(scenario_.network->capture().records(), hbg, {});
  Verifier verifier(paper_policies(scenario_));
  auto result = verifier.verify(snapshot);
  ASSERT_FALSE(result.clean());
  bool preferred_exit_violated = false;
  for (const Violation& v : result.violations) {
    if (v.policy.starts_with("preferred-exit")) preferred_exit_violated = true;
  }
  EXPECT_TRUE(preferred_exit_violated);
}

TEST_F(ConsistentFixture, UplinkFailureIsNotAViolation) {
  scenario_.converge_initial();
  scenario_.fail_uplink2();
  scenario_.network->run_to_convergence();

  auto hbg = build_hbg();
  auto snapshot = build(scenario_.network->capture().records(), hbg, {});
  EXPECT_FALSE(snapshot.uplink_up(scenario_.r2, PaperScenario::kUplink2));
  Verifier verifier(paper_policies(scenario_));
  auto result = verifier.verify(snapshot);
  EXPECT_TRUE(result.clean()) << (result.violations.empty()
                                      ? ""
                                      : result.violations.front().describe());
}

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

TEST(OneShotSnapshot, ShuffledSpanMatchesCaptureOrder) {
  // The one-shot cut is the only path that sorts each router's log by
  // router_seq, so the order of the span it is handed must not matter:
  // staggered horizons over a churned, jittered capture rewind several
  // routers, and the shuffled span must reproduce the snapshot and report.
  Rng topo_rng(7);
  NetworkOptions options;
  options.seed = 7;
  options.capture.timestamp_jitter_us = 1'000;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
  Network& net = *generated.network;
  net.run_to_convergence();
  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.event_count = 30;
  churn_options.seed = 8;
  ChurnWorkload churn(generated, churn_options);
  net.run_to_convergence();

  const std::vector<IoRecord>& records = net.capture().records();
  HappensBeforeGraph hbg = HbgBuilder::build(records, RuleMatchingInference());
  std::map<RouterId, SimTime> horizons;
  const SimTime end = net.sim().now();
  for (RouterId r = 0; r < net.router_count(); ++r) horizons[r] = end - SimTime{r} * 150'000;

  ConsistencyReport in_order;
  DataPlaneSnapshot expected = IncrementalSnapshotter::build({}, records, hbg, horizons, &in_order);
  ASSERT_GT(in_order.total_rewound(), 0u) << "premise: the cut rewinds some router";

  std::vector<IoRecord> shuffled = records;
  std::mt19937 rng(3);
  for (int trial = 0; trial < 3; ++trial) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    ConsistencyReport report;
    DataPlaneSnapshot snapshot =
        IncrementalSnapshotter::build({}, shuffled, hbg, horizons, &report);
    EXPECT_EQ(snapshot_digest(snapshot), snapshot_digest(expected)) << "trial " << trial;
    EXPECT_EQ(report.rewound, in_order.rewound) << "trial " << trial;
    EXPECT_EQ(report.in_flux, in_order.in_flux) << "trial " << trial;
    EXPECT_EQ(report.unmatched_recvs, in_order.unmatched_recvs) << "trial " << trial;
    EXPECT_EQ(report.iterations, in_order.iterations) << "trial " << trial;
  }
}

TEST(ViewFold, MatchesInOrderFibReplay) {
  // Random batches of installs, replacements, withdraws (of present and
  // absent prefixes), repeats and resets over nested prefixes, each batch
  // committed once, against a Fib that applies every record in order: the
  // same entries, and the same longest-prefix matches through the snapshot.
  Rng rng(5);
  DataPlaneSnapshot snapshot;
  RouterFibView& view = snapshot.routers[0];
  Fib reference;
  std::deque<IoRecord> records;  // the fold keeps pointers until commit()
  for (int batch = 0; batch < 400; ++batch) {
    ViewFold fold(view);
    auto ops = rng.uniform_int(0, 24);
    for (std::int64_t k = 0; k < ops; ++k) {
      IoRecord& r = records.emplace_back();
      r.kind = IoKind::kFibUpdate;
      Prefix prefix = full_table_prefix(static_cast<std::size_t>(rng.uniform_int(0, 47)));
      r.prefix = prefix;
      if (rng.chance(0.01)) {
        r.kind = IoKind::kConfigChange;
        r.fib_reset = true;
        reference.clear();
      } else if (rng.chance(0.35)) {
        r.withdraw = true;
        reference.remove(prefix);
      } else {
        r.fib_entry = FibEntry{prefix, FibEntry::Action::kExternal, kInvalidRouter,
                               "peer" + std::to_string(rng.uniform_int(0, 2)), Protocol::kEbgp};
        reference.install(*r.fib_entry);
      }
      fold.add(r);
    }
    fold.commit();
    ASSERT_EQ(view.entries, reference.entries()) << "batch " << batch;
    for (std::size_t i = 0; i < 48; ++i) {
      Prefix prefix = full_table_prefix(i);
      std::uint32_t start = prefix.address().bits();
      std::uint32_t end = start + static_cast<std::uint32_t>(prefix.size() - 1);
      for (std::uint32_t bits : {start, end, end + 1}) {
        const FibEntry* got = snapshot.lookup(0, IpAddress(bits));
        const FibEntry* want = reference.lookup(IpAddress(bits));
        ASSERT_EQ(got == nullptr, want == nullptr) << "batch " << batch << " at " << bits;
        if (want != nullptr) {
          EXPECT_EQ(*got, *want) << "batch " << batch << " at " << bits;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hbguard
