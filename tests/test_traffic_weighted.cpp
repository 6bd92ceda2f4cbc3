// Differential suite pinning traffic-weighted verification scheduling.
//
// The scheduler is only allowed to exist because of three invariants this
// file enforces:
//   1. With a full budget and uniform weights the guard's reports are
//      byte-identical to the pre-scheduler pipeline — at every thread count
//      and with incremental state on or off.
//   2. A budgeted scan defers *exactly* the tail plan() named, and the
//      union of budgeted scans converges to the oracle verdicts within the
//      aging bound (aging_scans + ceil(N / budget) verifying scans).
//   3. All orderings tie-break on destination id, so plans are pure
//      functions of the call history — no wall clock, no thread count, no
//      insertion order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "hbguard/verify/forwarding_graph.hpp"
#include "hbguard/verify/traffic.hpp"
#include "hbguard/verify/verifier.hpp"

namespace hbguard {
namespace {

// ---- Scheduler unit behaviour ---------------------------------------------

TrafficScheduler make_scheduler(TrafficScheduleOptions options,
                                const std::vector<std::pair<std::uint32_t, std::uint64_t>>& items,
                                bool reset_ages = true) {
  options.enabled = true;
  TrafficScheduler scheduler(options);
  scheduler.sync_items(items);
  if (reset_ages) {
    // New items start aged (never-verified outranks the hot set); verify
    // everything once so subsequent plans exercise the weight order.
    std::vector<std::uint32_t> all;
    for (const auto& [bits, weight] : items) all.push_back(bits);
    std::sort(all.begin(), all.end());
    scheduler.mark_verified(all);
  }
  return scheduler;
}

TEST(TrafficScheduler, NewItemsStartAgedAndCoverInIdOrder) {
  TrafficScheduleOptions options;
  options.max_items = 2;
  TrafficScheduler scheduler =
      make_scheduler(options, {{30, 1}, {10, 99}, {20, 5}}, /*reset_ages=*/false);
  // All three are new, hence aged with equal starvation: id order wins over
  // weight until the first verification.
  ScheduledScan scan = scheduler.plan();
  EXPECT_EQ(scan.covered, (std::vector<std::uint32_t>{10, 20}));
  EXPECT_EQ(scan.deferred, (std::vector<std::uint32_t>{30}));
  EXPECT_EQ(scan.aged_in, 2u);
}

TEST(TrafficScheduler, BudgetCoversHeaviestFirstAndDefersExactTail) {
  TrafficScheduleOptions options;
  options.max_items = 2;
  TrafficScheduler scheduler =
      make_scheduler(options, {{1, 5}, {2, 40}, {3, 10}, {4, 45}});
  ScheduledScan scan = scheduler.plan();
  EXPECT_EQ(scan.covered, (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(scan.deferred, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(scan.covered_weight, 85u);
  EXPECT_EQ(scan.total_weight, 100u);
  EXPECT_FALSE(scan.full());
}

TEST(TrafficScheduler, CoverageTargetStopsAtIntegralThreshold) {
  TrafficScheduleOptions options;
  options.coverage_target = 0.5;
  TrafficScheduler scheduler = make_scheduler(options, {{1, 50}, {2, 30}, {3, 20}});
  ScheduledScan scan = scheduler.plan();
  // ceil(0.5 * 100) = 50: the heaviest item alone meets the target.
  EXPECT_EQ(scan.covered, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(scan.deferred, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_DOUBLE_EQ(scan.coverage(), 0.5);
}

TEST(TrafficScheduler, FullBudgetNeverDefers) {
  TrafficScheduler scheduler = make_scheduler({}, {{1, 3}, {2, 0}, {3, 7}});
  for (int i = 0; i < 5; ++i) {
    ScheduledScan scan = scheduler.plan();
    EXPECT_TRUE(scan.full());
    EXPECT_EQ(scan.covered.size(), 3u);
    scheduler.mark_verified(scan.covered);
  }
  EXPECT_EQ(scheduler.stats().deferred_items, 0u);
}

TEST(TrafficScheduler, EqualWeightsTieBreakOnIdRegardlessOfInsertionOrder) {
  // Regression: the priority order must break weight ties on destination
  // id, so the plan is independent of sync_items input order.
  TrafficScheduleOptions options;
  options.max_items = 2;
  TrafficScheduler forward = make_scheduler(options, {{5, 9}, {6, 9}, {7, 9}, {8, 9}});
  TrafficScheduler reversed = make_scheduler(options, {{8, 9}, {7, 9}, {6, 9}, {5, 9}});
  ScheduledScan a = forward.plan();
  ScheduledScan b = reversed.plan();
  EXPECT_EQ(a.covered, (std::vector<std::uint32_t>{5, 6}));
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.deferred, b.deferred);
}

TEST(TrafficScheduler, DuplicateIdsMergeTheirWeights) {
  TrafficScheduleOptions options;
  options.max_items = 1;
  // 7 appears twice (two prefixes sharing a representative): 4+4 > 6.
  TrafficScheduler scheduler = make_scheduler(options, {{6, 6}, {7, 4}, {7, 4}});
  EXPECT_EQ(scheduler.item_count(), 2u);
  ScheduledScan scan = scheduler.plan();
  EXPECT_EQ(scan.covered, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(scan.total_weight, 14u);
}

TEST(TrafficScheduler, AllZeroWeightsFallBackToUniform) {
  TrafficScheduler scheduler = make_scheduler({}, {{1, 0}, {2, 0}});
  ScheduledScan scan = scheduler.plan();
  EXPECT_EQ(scan.total_weight, 2u);
  EXPECT_EQ(scan.covered.size(), 2u);
}

TEST(TrafficScheduler, RoundRobinIsLeastRecentlyVerifiedFirst) {
  TrafficScheduleOptions options;
  options.policy = SchedulePolicy::kRoundRobin;
  options.max_items = 1;
  TrafficScheduler scheduler = make_scheduler(options, {{1, 100}, {2, 1}, {3, 1}});
  std::vector<std::uint32_t> covered_order;
  for (int i = 0; i < 6; ++i) {
    ScheduledScan scan = scheduler.plan();
    ASSERT_EQ(scan.covered.size(), 1u);
    covered_order.push_back(scan.covered[0]);
    scheduler.mark_verified(scan.covered);
  }
  // Weight is ignored: a strict LRU cycle in id order.
  EXPECT_EQ(covered_order, (std::vector<std::uint32_t>{1, 2, 3, 1, 2, 3}));
}

TEST(TrafficScheduler, AgingBoundsStarvationUnderAPermanentHotSet) {
  // One destination carries nearly all the weight; with budget 1 it would
  // monopolize every scan. Aging guarantees every destination is verified
  // at least every aging_scans + ceil(N / budget) verifying scans.
  constexpr std::size_t kItems = 8;
  constexpr std::size_t kAging = 4;
  TrafficScheduleOptions options;
  options.max_items = 1;
  options.aging_scans = kAging;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> items;
  items.emplace_back(0, 1'000'000);
  for (std::uint32_t i = 1; i < kItems; ++i) items.emplace_back(i, 1);
  TrafficScheduler scheduler = make_scheduler(options, items);

  std::map<std::uint32_t, int> last_covered;
  for (const auto& [bits, weight] : items) last_covered[bits] = 0;
  const int bound = static_cast<int>(kAging + kItems);  // ceil(N/1) = N
  for (int scan_index = 1; scan_index <= 64; ++scan_index) {
    ScheduledScan scan = scheduler.plan();
    ASSERT_EQ(scan.covered.size(), 1u);
    scheduler.mark_verified(scan.covered);
    last_covered[scan.covered[0]] = scan_index;
    for (const auto& [bits, last] : last_covered) {
      EXPECT_LE(scan_index - last, bound) << "destination " << bits << " starved";
    }
  }
  // The histogram recorded the same bound as its worst gap.
  EXPECT_LE(scheduler.detection_latency().max_gap(), static_cast<std::uint64_t>(bound));
  EXPECT_GT(scheduler.stats().aged_items, 0u);
}

TEST(DetectionLatencyHistogram, WeightedPercentilesAreExact) {
  DetectionLatencyHistogram histogram;
  histogram.record(1, 90);
  histogram.record(10, 9);
  histogram.record(40, 1);
  EXPECT_EQ(histogram.weighted_percentile(0.50), 1u);
  EXPECT_EQ(histogram.weighted_percentile(0.90), 1u);
  EXPECT_EQ(histogram.weighted_percentile(0.99), 10u);
  EXPECT_EQ(histogram.weighted_percentile(1.0), 40u);
  EXPECT_EQ(histogram.samples(), 3u);
  EXPECT_EQ(histogram.total_weight(), 100u);
  EXPECT_EQ(histogram.max_gap(), 40u);
}

// ---- Verifier-level budgeted convergence ----------------------------------

// A two-router snapshot with a forwarding loop on exactly one of four
// prefixes: the oracle (full verify) flags it; budgeted scans must flag
// nothing outside their covered set and converge to the oracle within the
// aging bound.
struct BudgetedFixture {
  DataPlaneSnapshot snapshot;
  PolicyList policies;
  std::vector<Prefix> prefixes;

  BudgetedFixture() {
    FibTable& r0 = snapshot.routers[0].entries;
    FibTable& r1 = snapshot.routers[1].entries;
    for (std::size_t i = 0; i < 4; ++i) {
      Prefix prefix = churn_prefix(i);
      prefixes.push_back(prefix);
      policies.push_back(std::make_shared<LoopFreedomPolicy>(prefix));
      std::string cidr = prefix.to_string();
      r0.install(forward_entry(cidr.c_str(), 1));
      if (i == 2) {  // loop: R0 -> R1 -> R0
        r1.install(forward_entry(cidr.c_str(), 0));
      } else {
        r1.install(external_entry(cidr.c_str(), "up0"));
      }
    }
  }
};

std::set<std::string> violation_set(const std::vector<Violation>& violations) {
  std::set<std::string> out;
  for (const Violation& v : violations) out.insert(v.describe());
  return out;
}

TEST(BudgetedVerify, DefersExactlyThePlannedTailAndConverges) {
  BudgetedFixture fixture;
  Verifier oracle_verifier(fixture.policies);
  VerifyResult oracle = oracle_verifier.verify(fixture.snapshot);
  ASSERT_FALSE(oracle.clean());
  EXPECT_EQ(oracle.evaluated_policies, fixture.policies.size());
  EXPECT_EQ(oracle.deferred_policies, 0u);

  TrafficScheduleOptions options;
  options.enabled = true;
  options.max_items = 1;
  options.aging_scans = 2;
  TrafficScheduler scheduler(options);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> universe;
  for (std::size_t i = 0; i < fixture.prefixes.size(); ++i) {
    // Skew the demand away from the faulty prefix so convergence genuinely
    // relies on aging, not on the loop being hot.
    universe.emplace_back(representative(fixture.prefixes[i]).bits(), i == 2 ? 1 : 100);
  }

  Verifier verifier(fixture.policies);
  std::set<std::string> seen;
  const std::size_t bound = options.aging_scans + fixture.prefixes.size();  // ceil(N/1)
  std::size_t converged_at = 0;
  for (std::size_t scan_index = 1; scan_index <= bound; ++scan_index) {
    scheduler.sync_items(universe);
    ScheduledScan scan = scheduler.plan();
    EXPECT_EQ(scan.covered.size() + scan.deferred.size(), fixture.prefixes.size());
    VerifyPlan plan;
    plan.covered = scan.covered;
    VerifyResult result = verifier.verify(fixture.snapshot, nullptr, &plan);
    scheduler.mark_verified(scan.covered);

    // Budgeted scans skip exactly the policies whose destination was
    // deferred — nothing more, nothing less.
    EXPECT_EQ(result.evaluated_policies, scan.covered.size());
    EXPECT_EQ(result.deferred_policies, scan.deferred.size());
    for (const Violation& violation : result.violations) {
      EXPECT_TRUE(std::binary_search(scan.covered.begin(), scan.covered.end(),
                                     representative(violation.prefix).bits()))
          << "violation reported for a deferred destination";
    }
    for (const std::string& v : violation_set(result.violations)) seen.insert(v);
    if (converged_at == 0 && seen == violation_set(oracle.violations)) {
      converged_at = scan_index;
    }
  }
  EXPECT_EQ(seen, violation_set(oracle.violations));
  EXPECT_GT(converged_at, 0u) << "budgeted scans never reached the oracle verdicts";
  EXPECT_LE(converged_at, bound);
}

TEST(BudgetedVerify, NullPlanMatchesFullPlanByteForByte) {
  BudgetedFixture fixture;
  Verifier a(fixture.policies);
  Verifier b(fixture.policies);
  VerifyPlan everything;
  for (const Prefix& prefix : fixture.prefixes) {
    everything.covered.push_back(representative(prefix).bits());
  }
  std::sort(everything.covered.begin(), everything.covered.end());
  VerifyResult with_plan = b.verify(fixture.snapshot, nullptr, &everything);
  VerifyResult without = a.verify(fixture.snapshot);
  EXPECT_EQ(violation_set(with_plan.violations), violation_set(without.violations));
  EXPECT_EQ(with_plan.evaluated_policies, without.evaluated_policies);
  EXPECT_EQ(with_plan.deferred_policies, 0u);
}

// ---- Guard-level differential ---------------------------------------------

FaultPlan control_fault_plan(std::uint64_t seed) {
  Rng topo_rng(seed);
  Topology topology = make_waxman_topology(8, topo_rng);
  FaultPlanOptions plan_options;
  plan_options.link_flaps = 2;
  plan_options.router_crashes = 1;
  plan_options.capture_outages = 0;
  plan_options.seed = seed;
  return FaultPlan::random(topology, plan_options);
}

TEST(TrafficGuardParity, UniformFullBudgetDigestByteIdentical) {
  // The tentpole's safety gate: scheduling enabled with uniform weights and
  // a full budget must be invisible — byte-identical GuardReport digests at
  // every thread count, on the default incremental pipeline and on one that
  // rebuilds its HBG (and snapshot) from the full history every scan.
  FaultPlan plan = control_fault_plan(13);
  std::string baseline;
  for (bool incremental : {true, false}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      auto pipeline = [incremental](GuardOptions& guard) {
        if (!incremental) guard.inference = std::make_shared<RuleMatchingInference>(guard.matcher);
      };
      GuardedRunOptions options;
      options.threads = threads;
      options.customize = pipeline;
      std::string off = run_guarded(plan, options).report.digest();

      options.customize = [&](GuardOptions& guard) {
        pipeline(guard);
        guard.traffic.enabled = true;  // defaults: full coverage, no weights
      };
      std::string on = run_guarded(plan, options).report.digest();
      EXPECT_EQ(off, on) << "threads=" << threads << " incremental=" << incremental;
      if (baseline.empty()) baseline = off;
      EXPECT_EQ(baseline, off) << "threads=" << threads << " incremental=" << incremental;
    }
  }
}

TEST(TrafficGuardParity, SkewedWeightsWithFullBudgetKeepVerdictsAndIncidents) {
  // Non-uniform demand re-ranks causes (intended) but a full budget must
  // not change what is detected: same per-scan verdicts, same violations.
  FaultPlan plan = control_fault_plan(13);
  GuardedRunOptions options;
  GuardedRun baseline = run_guarded(plan, options);

  auto weights = std::make_shared<TrafficWeights>();
  for (RouterId r = 1; r < 8; ++r) {
    weights->set(loopback_prefix(r), 1'000'000 >> r);  // heavy head, light tail
  }
  options.customize = [&](GuardOptions& guard) {
    guard.traffic.enabled = true;
    guard.traffic.weights = weights;
  };
  GuardedRun weighted = run_guarded(plan, options);

  EXPECT_EQ(baseline.report.scan_verdicts, weighted.report.scan_verdicts);
  ASSERT_EQ(baseline.report.incidents.size(), weighted.report.incidents.size());
  for (std::size_t i = 0; i < baseline.report.incidents.size(); ++i) {
    EXPECT_EQ(violation_set(baseline.report.incidents[i].violations),
              violation_set(weighted.report.incidents[i].violations));
  }
  EXPECT_EQ(baseline.final_data_plane, weighted.final_data_plane);
}

TEST(TrafficGuardBudget, CleanBudgetedScansReportDeferredAndBoundTtd) {
  // A clean network under a hard scan budget: every verifying scan covers 3
  // of the 7 loopback destinations, so no scan may claim a full PASS — the
  // verdict is kDeferred — and the aging bound caps the per-destination
  // verification gap.
  FaultPlan empty_plan;
  GuardedRunOptions options;
  TrafficScheduleStats stats;
  std::uint64_t max_gap = 0;
  std::uint64_t samples = 0;
  options.customize = [](GuardOptions& guard) {
    guard.traffic.enabled = true;
    guard.traffic.max_items = 3;
    guard.traffic.aging_scans = 4;
  };
  options.inspect = [&](const Guard& guard) {
    ASSERT_TRUE(guard.traffic_scheduling());
    stats = guard.traffic_scheduler().stats();
    max_gap = guard.traffic_scheduler().detection_latency().max_gap();
    samples = guard.traffic_scheduler().detection_latency().samples();
  };
  GuardedRun run = run_guarded(empty_plan, options);

  EXPECT_TRUE(run.report.incidents.empty()) << run.report.summary();
  EXPECT_EQ(run.report.clean_scans, 0u);  // deferred scans are not full passes
  std::size_t deferred_verdicts = 0;
  for (ScanVerdict verdict : run.report.scan_verdicts) {
    EXPECT_NE(verdict, ScanVerdict::kPass);
    EXPECT_NE(verdict, ScanVerdict::kFail);
    if (verdict == ScanVerdict::kDeferred) ++deferred_verdicts;
  }
  EXPECT_EQ(deferred_verdicts, run.report.scan_verdicts.size());
  EXPECT_GT(stats.planned_scans, 0u);
  EXPECT_GT(stats.deferred_items, 0u);
  EXPECT_GT(samples, 0u);
  // aging_scans + ceil(7 destinations / budget 3) = 4 + 3.
  EXPECT_LE(max_gap, 7u);
}

}  // namespace
}  // namespace hbguard
