// Determinism tests for the verifier at several thread counts: a pool only
// splits the policies to check, so every thread count must produce
// byte-identical reports, and clear_cache() must drop the verdicts a delta
// would otherwise let it reuse.
#include <gtest/gtest.h>

#include <sstream>

#include "fixtures.hpp"
#include "hbguard/core/guard.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
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
        s.routers[0].entries.install(forward_entry(p, 1));
        s.routers[1].entries.install(forward_entry(p, 2));
        s.routers[2].entries.install(external_entry(p, "up"));
        break;
      case 1:  // loop 0 -> 1 -> 0
        s.routers[0].entries.install(forward_entry(p, 1));
        s.routers[1].entries.install(forward_entry(p, 0));
        break;
      case 2:  // blackhole at 1 (route points there, no entry)
        s.routers[0].entries.install(forward_entry(p, 1));
        break;
      case 3:  // direct exit from 1 only
        s.routers[1].entries.install(external_entry(p, "up"));
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

TEST(ParallelVerify, ClearCacheDropsStoredVerdicts) {
  DataPlaneSnapshot snapshot = mixed_snapshot();
  SnapshotDelta unchanged;
  unchanged.full = false;  // incremental, nothing changed
  Verifier fresh(mixed_policies(), VerifierOptions{.num_threads = 1});
  const std::string expected = render(fresh.verify(snapshot));

  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "num_threads=" << threads);
    Verifier verifier(mixed_policies(), VerifierOptions{.num_threads = threads});
    const std::size_t policies = verifier.policies().size();
    EXPECT_EQ(render(verifier.verify(snapshot)), expected);
    EXPECT_EQ(verifier.stats().reused_policies, 0u);

    // An empty delta vouches for every stored verdict.
    EXPECT_EQ(render(verifier.verify(snapshot, &unchanged)), expected);
    EXPECT_EQ(verifier.stats().reused_policies, policies);

    // Once the verdicts are dropped, the same delta can vouch for none.
    verifier.clear_cache();
    VerifyResult after = verifier.verify(snapshot, &unchanged);
    EXPECT_EQ(verifier.stats().reused_policies, policies);
    EXPECT_EQ(verifier.stats().delta_skips, 8u);  // all from the second call
    EXPECT_EQ(render(after), expected);
  }
}

TEST(ParallelVerify, SerialVerifierCreatesNoPool) {
  Verifier verifier(mixed_policies(), VerifierOptions{.num_threads = 1});
  verifier.verify(mixed_snapshot());
  EXPECT_EQ(verifier.thread_pool(), nullptr);
  VerifyStats stats = verifier.stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.destinations, 8u);
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
  // The whole pipeline — snapshotter replay, EC computation, policy
  // checks — must give the same incidents and the same summary text
  // no matter how many workers it uses.
  std::string baseline = guarded_run_summary(1);
  EXPECT_NE(baseline.find("reverted"), std::string::npos);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(guarded_run_summary(threads), baseline) << "num_threads=" << threads;
  }
}

}  // namespace
}  // namespace hbguard
