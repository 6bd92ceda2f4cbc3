#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <set>

#include "hbguard/snapshot/naive.hpp"
#include "hbguard/verify/eqclass.hpp"
#include "hbguard/verify/verifier.hpp"

namespace hbguard {
namespace {

FibEntry forward(const char* prefix, RouterId next_hop) {
  FibEntry e;
  e.prefix = *Prefix::parse(prefix);
  e.action = FibEntry::Action::kForward;
  e.next_hop = next_hop;
  return e;
}

FibEntry external(const char* prefix, const char* session) {
  FibEntry e;
  e.prefix = *Prefix::parse(prefix);
  e.action = FibEntry::Action::kExternal;
  e.external_session = session;
  return e;
}

FibEntry local(const char* prefix) {
  FibEntry e;
  e.prefix = *Prefix::parse(prefix);
  e.action = FibEntry::Action::kLocal;
  return e;
}

FibEntry drop(const char* prefix) {
  FibEntry e;
  e.prefix = *Prefix::parse(prefix);
  e.action = FibEntry::Action::kDrop;
  return e;
}

/// Hand-built snapshot: R0 -> R1 -> R2(exit via "up"), destination P.
DataPlaneSnapshot chain_snapshot() {
  DataPlaneSnapshot s;
  s.routers[0].entries = {forward("203.0.113.0/24", 1)};
  s.routers[1].entries = {forward("203.0.113.0/24", 2)};
  s.routers[2].entries = {external("203.0.113.0/24", "up")};
  return s;
}

const Prefix kP = *Prefix::parse("203.0.113.0/24");

TEST(Trace, ChainReachesExternal) {
  auto s = chain_snapshot();
  auto trace = trace_forwarding(s, 0, representative(kP));
  EXPECT_EQ(trace.outcome, ForwardOutcome::kExternal);
  EXPECT_EQ(trace.path, (std::vector<RouterId>{0, 1, 2}));
  EXPECT_EQ(trace.exit_router, 2u);
  EXPECT_EQ(trace.exit_session, "up");
}

TEST(Trace, LoopDetected) {
  auto s = chain_snapshot();
  s.routers[2].entries = {forward("203.0.113.0/24", 0)};
  auto trace = trace_forwarding(s, 0, representative(kP));
  EXPECT_EQ(trace.outcome, ForwardOutcome::kLoop);
}

TEST(Trace, BlackholeOnMissingEntry) {
  auto s = chain_snapshot();
  s.routers[1].entries = {};
  auto trace = trace_forwarding(s, 0, representative(kP));
  EXPECT_EQ(trace.outcome, ForwardOutcome::kBlackhole);
  EXPECT_EQ(trace.path.back(), 1u);
}

TEST(Trace, DropAction) {
  auto s = chain_snapshot();
  s.routers[1].entries = {drop("203.0.113.0/24")};
  auto trace = trace_forwarding(s, 0, representative(kP));
  EXPECT_EQ(trace.outcome, ForwardOutcome::kDropped);
}

TEST(Trace, LocalDelivery) {
  auto s = chain_snapshot();
  s.routers[2].entries = {local("203.0.113.0/24")};
  auto trace = trace_forwarding(s, 0, representative(kP));
  EXPECT_EQ(trace.outcome, ForwardOutcome::kDelivered);
  EXPECT_EQ(trace.exit_router, 2u);
}

TEST(Trace, DeadUplinkDetected) {
  auto s = chain_snapshot();
  s.routers[2].failed_uplinks.insert("up");
  auto trace = trace_forwarding(s, 0, representative(kP));
  EXPECT_EQ(trace.outcome, ForwardOutcome::kDeadUplink);
}

TEST(Trace, ForwardToUnknownRouterIsBlackhole) {
  auto s = chain_snapshot();
  s.routers[1].entries = {forward("203.0.113.0/24", 99)};
  auto trace = trace_forwarding(s, 0, representative(kP));
  EXPECT_EQ(trace.outcome, ForwardOutcome::kBlackhole);
}

TEST(Trace, LongestPrefixMatchGovernsNextHop) {
  auto s = chain_snapshot();
  s.routers[0].entries = {forward("203.0.113.0/24", 1), forward("203.0.113.0/25", 2)};
  auto trace = trace_forwarding(s, 0, IpAddress(203, 0, 113, 5));  // inside /25
  EXPECT_EQ(trace.path[1], 2u);
}

TEST(Policies, LoopFreedomFlagsEveryLoopedSource) {
  auto s = chain_snapshot();
  s.routers[2].entries = {forward("203.0.113.0/24", 0)};
  LoopFreedomPolicy policy(kP);
  std::vector<Violation> violations;
  policy.check(s, violations);
  EXPECT_EQ(violations.size(), 3u);  // every source loops
}

TEST(Policies, BlackholeFreedomIgnoresRoutelessRouters) {
  auto s = chain_snapshot();
  s.routers[0].entries = {};  // no route at R0: not a blackhole by policy
  BlackholeFreedomPolicy policy(kP);
  std::vector<Violation> violations;
  policy.check(s, violations);
  EXPECT_TRUE(violations.empty());
}

TEST(Policies, BlackholeFreedomFlagsDownstreamHole) {
  auto s = chain_snapshot();
  s.routers[2].entries = {};  // R0 and R1 forward into a hole
  BlackholeFreedomPolicy policy(kP);
  std::vector<Violation> violations;
  policy.check(s, violations);
  EXPECT_EQ(violations.size(), 2u);
}

TEST(Policies, ReachabilityPassAndFail) {
  auto s = chain_snapshot();
  ReachabilityPolicy ok(0, kP);
  std::vector<Violation> violations;
  ok.check(s, violations);
  EXPECT_TRUE(violations.empty());

  s.routers[1].entries = {};
  ok.check(s, violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].router, 0u);
}

TEST(Policies, WaypointEnforced) {
  auto s = chain_snapshot();
  WaypointPolicy through_r1(kP, 1);
  std::vector<Violation> violations;
  through_r1.check(s, violations);
  EXPECT_TRUE(violations.empty());

  // R0 bypasses R1 straight to R2.
  s.routers[0].entries = {forward("203.0.113.0/24", 2)};
  through_r1.check(s, violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].router, 0u);
}

TEST(Policies, PreferredExitHonoursUplinkState) {
  DataPlaneSnapshot s;
  s.routers[0].entries = {forward("203.0.113.0/24", 2)};
  s.routers[1].entries = {external("203.0.113.0/24", "backup")};
  s.routers[2].entries = {external("203.0.113.0/24", "pref")};
  // Both uplinks currently offer the route.
  s.routers[1].uplink_routes["backup"].insert(kP);
  s.routers[2].uplink_routes["pref"].insert(kP);

  PreferredExitPolicy policy(kP, 2, "pref", 1, "backup");
  {
    std::vector<Violation> violations;
    policy.check(s, violations);
    // R1 exits via backup although preferred is up: violation at R1.
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].router, 1u);
  }
  {
    // Preferred uplink down: now R1's exit is right and R0/R2 are wrong.
    s.routers[2].failed_uplinks.insert("pref");
    std::vector<Violation> violations;
    policy.check(s, violations);
    EXPECT_EQ(violations.size(), 2u);
  }
}

TEST(Policies, PreferredExitQuietWhileExitHasNoOffer) {
  // Fig. 1a: the preferred uplink is up but has learned no route — exiting
  // via the backup is correct, not a violation.
  DataPlaneSnapshot s;
  s.routers[0].entries = {forward("203.0.113.0/24", 1)};
  s.routers[1].entries = {external("203.0.113.0/24", "backup")};
  s.routers[1].uplink_routes["backup"].insert(kP);
  s.routers[2].entries = {forward("203.0.113.0/24", 1)};
  PreferredExitPolicy policy(kP, 2, "pref", 1, "backup");
  std::vector<Violation> violations;
  policy.check(s, violations);
  EXPECT_TRUE(violations.empty());
}

TEST(Policies, PreferredExitQuietWhenPrefixWithdrawn) {
  DataPlaneSnapshot s;
  s.routers[0].entries = {};
  s.routers[1].entries = {};
  PreferredExitPolicy policy(kP, 0, "pref", 1, "backup");
  std::vector<Violation> violations;
  policy.check(s, violations);
  EXPECT_TRUE(violations.empty());
}

TEST(Verifier, AggregatesAcrossPolicies) {
  auto s = chain_snapshot();
  s.routers[2].entries = {forward("203.0.113.0/24", 0)};
  Verifier verifier({std::make_shared<LoopFreedomPolicy>(kP),
                     std::make_shared<ReachabilityPolicy>(0, kP)});
  auto result = verifier.verify(s);
  EXPECT_EQ(result.violations.size(), 4u);  // 3 loop + 1 reachability
}

TEST(Verifier, CompareVerdicts) {
  auto truth = chain_snapshot();
  auto observed = chain_snapshot();
  observed.routers[2].entries = {forward("203.0.113.0/24", 0)};  // phantom loop

  Verifier verifier({std::make_shared<LoopFreedomPolicy>(kP)});
  auto comparison = compare_verdicts(verifier, observed, truth);
  EXPECT_EQ(comparison.false_alarms, 1u);
  EXPECT_EQ(comparison.missed, 0u);
  EXPECT_EQ(comparison.agree, 0u);

  comparison = compare_verdicts(verifier, truth, observed);
  EXPECT_EQ(comparison.missed, 1u);
}

// ---------------------------------------------------------------------------
// Delta-driven verification against a brute-force model

/// Counts its checks, so a test can see which policies a verify() call
/// checked.
class CountingPolicy : public Policy {
 public:
  explicit CountingPolicy(std::shared_ptr<Policy> inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void check(const DataPlaneSnapshot& snapshot, std::vector<Violation>& out) const override {
    checks_.fetch_add(1, std::memory_order_relaxed);
    inner_->check(snapshot, out);
  }
  std::vector<Prefix> prefixes() const override { return inner_->prefixes(); }
  std::size_t checks() const { return checks_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<Policy> inner_;
  mutable std::atomic<std::size_t> checks_{0};
};

/// The verifier's decision rules, spelled out one policy and one changed
/// prefix at a time: a covered policy reuses its stored verdict when the
/// delta is incremental, the previous call covered it (and no clear_cache()
/// came between), and no changed prefix contains one of its destinations.
struct VerifierModel {
  explicit VerifierModel(PolicyList list)
      : policies(std::move(list)), verdicts(policies.size()), covered_last(policies.size(), false) {}

  /// The policies the call checks, ascending; fills `result` and `stats`.
  std::vector<std::size_t> verify(const DataPlaneSnapshot& snapshot, const SnapshotDelta* delta,
                                  const VerifyPlan* plan, VerifyResult& result) {
    const bool incremental = delta != nullptr && !delta->full;
    ++stats.runs;
    std::set<std::uint32_t> used;
    std::set<std::uint32_t> needed;
    std::vector<std::size_t> checked;
    std::vector<bool> covered(policies.size(), false);
    for (std::size_t i = 0; i < policies.size(); ++i) {
      std::vector<std::uint32_t> dests;
      for (const Prefix& prefix : policies[i]->prefixes()) {
        dests.push_back(representative(prefix).bits());
      }
      bool in_plan = true;
      for (std::uint32_t d : dests) in_plan = in_plan && (plan == nullptr || plan->covers(d));
      if (!in_plan) {
        ++result.deferred_policies;
        continue;
      }
      covered[i] = true;
      ++result.evaluated_policies;
      used.insert(dests.begin(), dests.end());
      bool touched = false;
      if (incremental) {
        for (std::uint32_t d : dests) {
          for (const Prefix& prefix : delta->changed_prefixes) {
            touched = touched || prefix.contains(IpAddress(d));
          }
        }
      }
      if (incremental && covered_last[i] && !touched) {
        ++stats.reused_policies;
      } else {
        checked.push_back(i);
        needed.insert(dests.begin(), dests.end());
      }
    }
    stats.destinations += used.size();
    stats.delta_skips += used.size() - needed.size();
    for (std::size_t i : checked) {
      verdicts[i].clear();
      policies[i]->check(snapshot, verdicts[i]);
    }
    for (std::size_t i = 0; i < policies.size(); ++i) {
      covered_last[i] = covered[i];
      if (!covered[i]) continue;
      result.violations.insert(result.violations.end(), verdicts[i].begin(), verdicts[i].end());
    }
    return checked;
  }

  void clear_cache() {
    for (auto& violations : verdicts) violations.clear();
    std::fill(covered_last.begin(), covered_last.end(), false);
  }

  PolicyList policies;
  std::vector<std::vector<Violation>> verdicts;
  std::vector<bool> covered_last;
  VerifyStats stats;
};

std::vector<std::string> described(const std::vector<Violation>& violations) {
  std::vector<std::string> out;
  for (const Violation& v : violations) out.push_back(v.describe());
  return out;
}

TEST(Verifier, RandomDeltaPlanAndCacheSequencesMatchTheModel) {
  // Destinations overlap on purpose: /0, /8, /16 and /24 prefixes sharing a
  // network address share a destination, and /32s sit inside them.
  const std::vector<const char*> policy_prefixes = {
      "0.0.0.0/0",     "10.0.0.0/8",     "10.0.0.0/16",        "10.0.0.0/24",
      "10.0.0.5/32",   "10.0.1.0/24",    "10.0.1.128/25",      "10.0.1.200/32",
      "10.1.0.0/16",   "10.255.255.255/32", "192.168.0.0/16", "255.255.255.255/32"};
  // Changed prefixes: the above, plus covering, nested and disjoint ones.
  std::vector<const char*> delta_prefixes = policy_prefixes;
  for (const char* extra : {"0.0.0.0/1", "128.0.0.0/1", "10.0.0.0/15", "10.0.0.4/30",
                            "10.0.1.0/25", "10.0.1.201/32", "172.16.0.0/12", "11.0.0.0/8"}) {
    delta_prefixes.push_back(extra);
  }
  constexpr RouterId kRouters = 4;  // next hop kRouters is a router with no view

  for (unsigned threads : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "num_threads=" << threads);
    std::mt19937_64 rng(0x5EED + threads);
    auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };

    PolicyList inner;
    std::vector<std::shared_ptr<CountingPolicy>> counting;
    PolicyList policies;
    for (const char* text : policy_prefixes) {
      Prefix prefix = *Prefix::parse(text);
      for (std::size_t k = 0, n = 1 + pick(2); k < n; ++k) {
        std::shared_ptr<Policy> policy;
        switch (pick(4)) {
          case 0: policy = std::make_shared<LoopFreedomPolicy>(prefix); break;
          case 1: policy = std::make_shared<BlackholeFreedomPolicy>(prefix); break;
          case 2:
            policy = std::make_shared<ReachabilityPolicy>(static_cast<RouterId>(pick(kRouters)),
                                                          prefix);
            break;
          default:
            policy = std::make_shared<WaypointPolicy>(prefix, static_cast<RouterId>(pick(kRouters)));
        }
        inner.push_back(policy);
        counting.push_back(std::make_shared<CountingPolicy>(policy));
        policies.push_back(counting.back());
      }
    }
    std::vector<std::uint32_t> destinations;
    for (const auto& policy : inner) destinations.push_back(representative(policy->prefixes()[0]).bits());
    std::sort(destinations.begin(), destinations.end());
    destinations.erase(std::unique(destinations.begin(), destinations.end()), destinations.end());

    Verifier verifier(policies, VerifierOptions{threads});
    VerifierModel model(inner);

    // Each router's FIB, as prefix -> entry; rewritten into the snapshot
    // after every change.
    std::map<RouterId, std::map<Prefix, FibEntry>> fibs;
    DataPlaneSnapshot snapshot;
    auto change_entry = [&](RouterId router, const Prefix& prefix) {
      FibEntry entry;
      entry.prefix = prefix;
      switch (pick(5)) {
        case 0: fibs[router].erase(prefix); return;
        case 1: entry.action = FibEntry::Action::kExternal; entry.external_session = "up"; break;
        case 2: entry.action = FibEntry::Action::kLocal; break;
        case 3: entry.action = FibEntry::Action::kDrop; break;
        default:
          entry.action = FibEntry::Action::kForward;
          entry.next_hop = static_cast<RouterId>(pick(kRouters + 1));
      }
      fibs[router][prefix] = entry;
    };
    auto publish = [&] {
      for (RouterId router = 0; router < kRouters; ++router) {
        RouterFibView& view = snapshot.routers[router];
        view.entries.clear();
        for (const auto& [prefix, entry] : fibs[router]) view.entries.install(entry);
      }
    };
    for (RouterId router = 0; router < kRouters; ++router) {
      for (const char* text : delta_prefixes) change_entry(router, *Prefix::parse(text));
    }
    publish();

    std::size_t deferring_calls = 0;
    std::size_t partial_calls = 0;  // checked some covered policies, reused others
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      // Change a few entries; an incremental delta names each changed
      // prefix (honest), plus random extras (a superset is allowed).
      std::vector<Prefix> changed;
      for (std::size_t k = 0, n = pick(4); k < n; ++k) {
        Prefix prefix = *Prefix::parse(delta_prefixes[pick(delta_prefixes.size())]);
        change_entry(static_cast<RouterId>(pick(kRouters)), prefix);
        changed.push_back(prefix);
      }
      publish();
      for (std::size_t k = 0, n = pick(3); k < n; ++k) {
        changed.push_back(*Prefix::parse(delta_prefixes[pick(delta_prefixes.size())]));
      }
      std::sort(changed.begin(), changed.end());
      changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

      SnapshotDelta delta;
      const SnapshotDelta* delta_arg = &delta;
      switch (pick(6)) {
        case 0: delta_arg = nullptr; break;
        case 1: break;  // full
        default:
          delta.full = false;
          delta.changed_prefixes = changed;
      }
      VerifyPlan plan;
      const VerifyPlan* plan_arg = nullptr;
      if (pick(3) == 0) {
        for (std::uint32_t d : destinations) {
          if (pick(4) != 0) plan.covered.push_back(d);
        }
        plan_arg = &plan;
      }
      if (pick(12) == 0) {
        verifier.clear_cache();
        model.clear_cache();
      }

      std::vector<std::size_t> before;
      for (const auto& policy : counting) before.push_back(policy->checks());
      VerifyResult got = verifier.verify(snapshot, delta_arg, plan_arg);
      std::vector<std::size_t> checked;
      for (std::size_t i = 0; i < counting.size(); ++i) {
        ASSERT_LE(counting[i]->checks(), before[i] + 1);
        if (counting[i]->checks() != before[i]) checked.push_back(i);
      }

      VerifyResult want;
      EXPECT_EQ(checked, model.verify(snapshot, delta_arg, plan_arg, want));
      if (want.deferred_policies > 0) ++deferring_calls;
      if (!checked.empty() && checked.size() < want.evaluated_policies) ++partial_calls;
      EXPECT_EQ(described(got.violations), described(want.violations));
      EXPECT_EQ(got.evaluated_policies, want.evaluated_policies);
      EXPECT_EQ(got.deferred_policies, want.deferred_policies);
      VerifyStats stats = verifier.stats();
      EXPECT_EQ(stats.runs, model.stats.runs);
      EXPECT_EQ(stats.destinations, model.stats.destinations);
      EXPECT_EQ(stats.delta_skips, model.stats.delta_skips);
      EXPECT_EQ(stats.reused_policies, model.stats.reused_policies);

      // Honest deltas: what was reused is what a fresh check would find.
      Verifier fresh(inner, VerifierOptions{1});
      EXPECT_EQ(described(got.violations),
                described(fresh.verify(snapshot, nullptr, plan_arg).violations));
      if (HasFailure()) return;
    }
    // The sequence exercised every decision, not just full re-checks.
    EXPECT_GT(deferring_calls, 20u);
    EXPECT_GT(partial_calls, 50u);
    EXPECT_GT(model.stats.reused_policies, 500u);
  }
}

// ---------------------------------------------------------------------------
// Equivalence classes

TEST(EqClass, ChainHasFewClasses) {
  auto s = chain_snapshot();
  auto classes = compute_equivalence_classes(s);
  // Two behaviours: inside P (forwarded to exit) and outside P (no route).
  EXPECT_EQ(classes.classes.size(), 2u);
  EXPECT_EQ(classes.class_of(IpAddress(203, 0, 113, 7)),
            classes.class_of(IpAddress(203, 0, 113, 200)));
  EXPECT_NE(classes.class_of(IpAddress(203, 0, 113, 7)), classes.class_of(IpAddress(8, 8, 8, 8)));
}

TEST(EqClass, ManyPrefixesSameTreatmentCollapse) {
  DataPlaneSnapshot s;
  for (int i = 0; i < 50; ++i) {
    std::string p = "10." + std::to_string(i) + ".0.0/16";
    s.routers[0].entries.install(forward(p.c_str(), 1));
    s.routers[1].entries.install(external(p.c_str(), "up"));
  }
  auto classes = compute_equivalence_classes(s);
  // 50 prefixes but only 2 classes: "inside a 10.x/16" and "everything else".
  EXPECT_EQ(classes.classes.size(), 2u);
  EXPECT_GT(classes.atomic_intervals, 50u);
}

TEST(EqClass, DifferentTreatmentSplitsClasses) {
  DataPlaneSnapshot s;
  s.routers[0].entries = {forward("10.0.0.0/16", 1), forward("10.1.0.0/16", 2),
                          drop("10.2.0.0/16")};
  auto classes = compute_equivalence_classes(s);
  EXPECT_EQ(classes.classes.size(), 4u);  // three distinct + default no-route
}

TEST(EqClass, CoversFullAddressSpace) {
  auto s = chain_snapshot();
  auto classes = compute_equivalence_classes(s);
  std::uint64_t total = 0;
  for (const auto& klass : classes.classes) total += klass.size;
  EXPECT_EQ(total, std::uint64_t{1} << 32);
}

}  // namespace
}  // namespace hbguard
