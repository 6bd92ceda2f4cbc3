// Determinism and memoization tests for the sharded verifier: parallel runs
// must produce byte-identical reports to serial ones, and the per-EC
// forwarding-graph cache must hit on unchanged behaviour and miss after it
// changes.
#include <gtest/gtest.h>

#include <sstream>

#include "fixtures.hpp"
#include "hbguard/core/guard.hpp"
#include "hbguard/hbg/builder.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/consistent.hpp"
#include "hbguard/verify/verifier.hpp"

namespace hbguard {
namespace {

/// A snapshot with varied behaviour across eight prefixes: delivered,
/// looping, and blackholed destinations so every policy has work to do.
DataPlaneSnapshot mixed_snapshot() {
  DataPlaneSnapshot s;
  for (std::size_t i = 0; i < 8; ++i) {
    std::string prefix = churn_prefix(i).to_string();
    const char* p = prefix.c_str();
    switch (i % 4) {
      case 0:  // clean chain 0 -> 1 -> 2 -> uplink
        s.routers[0].entries.push_back(forward_entry(p, 1));
        s.routers[1].entries.push_back(forward_entry(p, 2));
        s.routers[2].entries.push_back(external_entry(p, "up"));
        break;
      case 1:  // loop 0 -> 1 -> 0
        s.routers[0].entries.push_back(forward_entry(p, 1));
        s.routers[1].entries.push_back(forward_entry(p, 0));
        break;
      case 2:  // blackhole at 1 (route points there, no entry)
        s.routers[0].entries.push_back(forward_entry(p, 1));
        break;
      case 3:  // direct exit from 1 only
        s.routers[1].entries.push_back(external_entry(p, "up"));
        break;
    }
  }
  return s;
}

PolicyList mixed_policies() {
  PolicyList policies;
  for (std::size_t i = 0; i < 8; ++i) {
    Prefix p = churn_prefix(i);
    policies.push_back(std::make_shared<LoopFreedomPolicy>(p));
    policies.push_back(std::make_shared<BlackholeFreedomPolicy>(p));
    if (i % 2 == 0) policies.push_back(std::make_shared<ReachabilityPolicy>(0, p));
  }
  return policies;
}

std::string render(const VerifyResult& result) {
  std::ostringstream out;
  for (const Violation& v : result.violations) out << v.describe() << "\n";
  return out.str();
}

TEST(ParallelVerify, ReportIdenticalAcrossThreadCounts) {
  DataPlaneSnapshot snapshot = mixed_snapshot();
  PolicyList policies = mixed_policies();

  Verifier serial(policies, VerifierOptions{.num_threads = 1});
  std::string baseline = render(serial.verify(snapshot));
  EXPECT_FALSE(baseline.empty());  // the snapshot is deliberately broken

  for (unsigned threads : {2u, 8u}) {
    Verifier parallel(policies, VerifierOptions{.num_threads = threads});
    EXPECT_EQ(render(parallel.verify(snapshot)), baseline)
        << "num_threads=" << threads;
  }
}

TEST(ParallelVerify, MemoizationOffMatchesMemoizationOn) {
  DataPlaneSnapshot snapshot = mixed_snapshot();
  PolicyList policies = mixed_policies();
  Verifier memo(policies, VerifierOptions{.num_threads = 4, .memoize = true});
  Verifier no_memo(policies, VerifierOptions{.num_threads = 4, .memoize = false});
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(render(memo.verify(snapshot)), render(no_memo.verify(snapshot)));
  }
  EXPECT_GT(memo.stats().cache_hits, 0u);
  EXPECT_EQ(no_memo.stats().cache_hits, 0u);
}

TEST(ParallelVerify, CacheHitsOnUnchangedSnapshot) {
  DataPlaneSnapshot snapshot = mixed_snapshot();
  Verifier verifier(mixed_policies(), VerifierOptions{.num_threads = 2});

  verifier.verify(snapshot);
  VerifyStats first = verifier.stats();
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, 8u);  // one graph per destination

  verifier.verify(snapshot);
  VerifyStats second = verifier.stats();
  EXPECT_EQ(second.cache_misses, 8u);  // nothing new to build
  EXPECT_EQ(second.cache_hits, 8u);    // every destination served from cache
}

TEST(ParallelVerify, CacheMissesOnlyForChangedBehaviour) {
  DataPlaneSnapshot snapshot = mixed_snapshot();
  Verifier verifier(mixed_policies(), VerifierOptions{.num_threads = 2});
  verifier.verify(snapshot);

  // Reroute prefix 0: router 1 now exits directly instead of via router 2.
  snapshot.routers[1].entries[0] = external_entry(churn_prefix(0).to_string().c_str(), "up");
  snapshot.invalidate_lookup_cache();

  VerifyResult changed = verifier.verify(snapshot);
  VerifyStats stats = verifier.stats();
  EXPECT_EQ(stats.cache_misses, 9u);  // only prefix 0 rebuilt
  EXPECT_EQ(stats.cache_hits, 7u);    // the other seven reused

  // And the rebuilt graph is actually used: verdicts match a fresh verifier.
  Verifier fresh(mixed_policies(), VerifierOptions{.num_threads = 1});
  EXPECT_EQ(render(changed), render(fresh.verify(snapshot)));
}

TEST(ParallelVerify, ClearCacheForcesRebuild) {
  DataPlaneSnapshot snapshot = mixed_snapshot();
  Verifier verifier(mixed_policies(), VerifierOptions{.num_threads = 2});
  verifier.verify(snapshot);
  verifier.clear_cache();
  verifier.verify(snapshot);
  EXPECT_EQ(verifier.stats().cache_misses, 16u);
  EXPECT_EQ(verifier.stats().cache_hits, 0u);
}

TEST(ParallelVerify, SerialVerifierCreatesNoPool) {
  Verifier verifier(mixed_policies(), VerifierOptions{.num_threads = 1});
  verifier.verify(mixed_snapshot());
  EXPECT_EQ(verifier.thread_pool(), nullptr);
  // The serial path keeps the path-independent counters, not the memo's.
  VerifyStats stats = verifier.stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.destinations, 8u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
}

TEST(ConsistentSnapshotter, ParallelReplayMatchesSerial) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_for(2'000'000);

  std::span<const IoRecord> records = scenario.network->capture().records();
  HappensBeforeGraph hbg = HbgBuilder::build(records, GroundTruthInference());

  ConsistentSnapshotter::Options serial_options;
  ConsistentSnapshotter serial(serial_options);
  DataPlaneSnapshot baseline = serial.build(records, hbg, {});

  for (unsigned threads : {2u, 8u}) {
    ConsistentSnapshotter::Options options;
    options.num_threads = threads;
    ConsistentSnapshotter parallel(options);
    DataPlaneSnapshot snapshot = parallel.build(records, hbg, {});

    ASSERT_EQ(snapshot.routers.size(), baseline.routers.size());
    for (const auto& [router, view] : baseline.routers) {
      const RouterFibView& other = snapshot.routers.at(router);
      EXPECT_EQ(other.entries, view.entries) << "router " << router;
      EXPECT_EQ(other.as_of, view.as_of);
      EXPECT_EQ(other.failed_uplinks, view.failed_uplinks);
      EXPECT_EQ(other.uplink_routes, view.uplink_routes);
    }
  }
}

std::string guarded_run_summary(unsigned num_threads) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.num_threads = num_threads;
  Guard guard(*scenario.network, paper_policies(scenario), options);
  scenario.misconfigure_r2_lp10();
  GuardReport report = guard.run();
  return report.summary();
}

TEST(ParallelVerify, GuardReportByteIdenticalAcrossThreadCounts) {
  // The whole pipeline — snapshotter replay, EC computation, sharded
  // verification — must give the same incidents and the same summary text
  // no matter how many workers it uses.
  std::string baseline = guarded_run_summary(1);
  EXPECT_NE(baseline.find("reverted"), std::string::npos);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(guarded_run_summary(threads), baseline) << "num_threads=" << threads;
  }
}

}  // namespace
}  // namespace hbguard
