#include <gtest/gtest.h>

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/repair/blocker.hpp"
#include "hbguard/repair/early_block.hpp"
#include "hbguard/repair/reverter.hpp"
#include "hbguard/sim/scenario.hpp"
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

ProvenanceResult analyze_fig2(PaperScenario& scenario) {
  auto graph =
      HbgBuilder::build(scenario.network->capture().records(), RuleMatchingInference());
  IoId fault = kNoIo;
  for (const IoRecord& r : scenario.network->capture().records()) {
    if (r.kind == IoKind::kFibUpdate && r.router == scenario.r1 && r.prefix.has_value() &&
        *r.prefix == scenario.prefix_p && !r.withdraw) {
      fault = r.id;
    }
  }
  RootCauseAnalyzer analyzer;
  return analyzer.analyze(graph, fault);
}

TEST(Reverter, RevertRestoresPolicyCompliance) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  ASSERT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));  // violated

  ConfigReverter reverter(*scenario.network);
  auto provenance = analyze_fig2(scenario);
  auto action = reverter.revert_root_cause(provenance);
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->reverted, bad);
  EXPECT_EQ(action->router, scenario.r2);

  scenario.network->run_to_convergence();
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
  EXPECT_TRUE(scenario.network->configs().record(bad).reverted);
}

TEST(Reverter, DoesNotRevertTwice) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  ConfigReverter reverter(*scenario.network);
  auto provenance = analyze_fig2(scenario);
  ASSERT_TRUE(reverter.revert_root_cause(provenance).has_value());
  EXPECT_FALSE(reverter.revert_root_cause(provenance).has_value());
  EXPECT_EQ(reverter.reverts_applied(), 1u);
}

TEST(Reverter, NothingRevertibleForUplinkFailure) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.fail_uplink2();
  scenario.network->run_to_convergence();

  auto graph =
      HbgBuilder::build(scenario.network->capture().records(), RuleMatchingInference());
  IoId fault = kNoIo;
  for (const IoRecord& r : scenario.network->capture().records()) {
    if (r.kind == IoKind::kFibUpdate && r.router == scenario.r1 && r.prefix.has_value() &&
        *r.prefix == scenario.prefix_p && !r.withdraw) {
      fault = r.id;
    }
  }
  RootCauseAnalyzer analyzer;
  auto provenance = analyzer.analyze(graph, fault);
  ConfigReverter reverter(*scenario.network);
  EXPECT_FALSE(reverter.revert_root_cause(provenance).has_value());
}

// ---------------------------------------------------------------------------
// Blocking: §2's strawman and its follow-on blackhole.

TEST(Blocker, VerifyingBlockerKeepsDataPlaneCompliant) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();

  VerifyingBlocker blocker(*scenario.network, paper_policies(scenario));
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  EXPECT_GT(blocker.blocked_count(), 0u);
  // Data plane still honours the policy...
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));
  // ...but the control plane has moved on (divergence).
  const FibEntry* control = scenario.router1().control_fib().find(scenario.prefix_p);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->action, FibEntry::Action::kExternal);
}

TEST(Blocker, BlockingCausesBlackholeOnSubsequentWithdrawal) {
  // The paper's §2 hazard, end to end: block the Fig. 2 fallout, then R2's
  // uplink fails. The control plane believes traffic uses R1 and has
  // nothing to update; the blocked data plane still sends P to R2, where
  // the dead uplink swallows it.
  auto scenario = PaperScenario::make();
  scenario.converge_initial();

  VerifyingBlocker blocker(*scenario.network, paper_policies(scenario));
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  ASSERT_GT(blocker.blocked_count(), 0u);

  scenario.fail_uplink2();
  scenario.network->run_to_convergence();

  auto snapshot = take_instant_snapshot(*scenario.network);
  auto trace = trace_forwarding(snapshot, scenario.r3, representative(scenario.prefix_p));
  EXPECT_FALSE(trace.reaches_exit())
      << "traffic should be blackholed, got: " << trace.describe();
}

TEST(Blocker, RevertAvoidsTheBlackholeInTheSameScenario) {
  // Companion experiment: with root-cause revert instead of blocking, the
  // subsequent uplink failure fails over cleanly.
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  ConfigReverter reverter(*scenario.network);
  ASSERT_TRUE(reverter.revert_root_cause(analyze_fig2(scenario)).has_value());
  scenario.network->run_to_convergence();

  scenario.fail_uplink2();
  scenario.network->run_to_convergence();

  auto snapshot = take_instant_snapshot(*scenario.network);
  auto trace = trace_forwarding(snapshot, scenario.r3, representative(scenario.prefix_p));
  EXPECT_TRUE(trace.reaches_exit());
  EXPECT_EQ(trace.exit_router, scenario.r1);
}

TEST(Blocker, ReleaseAndResyncHealsDivergence) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  VerifyingBlocker blocker(*scenario.network, paper_policies(scenario));
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  ASSERT_GT(blocker.blocked_count(), 0u);

  blocker.release_and_resync();
  // Data plane now matches the (misconfigured) control plane.
  for (RouterId router : {scenario.r1, scenario.r2, scenario.r3}) {
    const FibEntry* control = scenario.network->router(router).control_fib().find(
        scenario.prefix_p);
    const FibEntry* data = scenario.network->router(router).data_fib().find(scenario.prefix_p);
    ASSERT_NE(data, nullptr);
    ASSERT_NE(control, nullptr);
    EXPECT_EQ(*data, *control);
  }
}

// ---------------------------------------------------------------------------
// Early-block model

TEST(EarlyBlock, NormalizeReplacesNetworksKeepsScalars) {
  EXPECT_EQ(normalize_change_description("set local-pref 10 on uplink2"),
            "set local-pref 10 on uplink2");
  EXPECT_EQ(normalize_change_description("add static 10.1.0.0/16 via R3"),
            "add static <net> via R3");
  EXPECT_EQ(normalize_change_description("filter 192.168.4.1 on edge"),
            "filter <net> on edge");
}

TEST(EarlyBlock, ModelLearnsAndPredicts) {
  EarlyBlockModel model;
  EarlyBlockKey key{1, "set local-pref 10 on uplink2", "ecA"};
  EXPECT_FALSE(model.predict(key).has_value());

  model.observe(key, true);
  auto prediction = model.predict(key);
  ASSERT_TRUE(prediction.has_value());
  EXPECT_DOUBLE_EQ(*prediction, 1.0);

  model.observe(key, false);
  EXPECT_DOUBLE_EQ(*model.predict(key), 0.5);
  EXPECT_EQ(model.known_patterns(), 1u);
}

TEST(EarlyBlock, DistinctClassesDistinctPredictions) {
  EarlyBlockModel model;
  model.observe({1, "change", "ecA"}, true);
  model.observe({1, "change", "ecB"}, false);
  EXPECT_DOUBLE_EQ(*model.predict({1, "change", "ecA"}), 1.0);
  EXPECT_DOUBLE_EQ(*model.predict({1, "change", "ecB"}), 0.0);
  EXPECT_FALSE(model.predict({2, "change", "ecA"}).has_value());
}

}  // namespace
}  // namespace hbguard
