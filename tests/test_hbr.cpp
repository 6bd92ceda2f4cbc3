#include <gtest/gtest.h>

#include <memory>

#include "hbguard/hbr/pattern_miner.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/hbr/rules.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "record_index.hpp"

namespace hbguard {
namespace {

std::span<const IoRecord> trace_of(const PaperScenario& scenario) {
  return scenario.network->capture().records();
}

TEST(GroundTruth, EdgesSkipLostRecords) {
  std::vector<IoRecord> records(2);
  records[0].id = 1;
  records[1].id = 3;
  records[1].true_causes = {1, 2};  // record 2 was lost
  auto edges = ground_truth_edges(records);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, 1u);
  EXPECT_EQ(edges[0].to, 3u);
}

TEST(Score, PerfectInference) {
  std::vector<IoRecord> records(2);
  records[0].id = 1;
  records[1].id = 2;
  records[1].true_causes = {1};
  std::vector<InferredHbr> inferred{{1, 2, 1.0, "x"}};
  auto score = score_inference(records, inferred);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 0u);
  EXPECT_EQ(score.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0);
  EXPECT_DOUBLE_EQ(score.recall(), 1.0);
  EXPECT_DOUBLE_EQ(score.f1(), 1.0);
}

TEST(Score, MixedInference) {
  std::vector<IoRecord> records(3);
  for (int i = 0; i < 3; ++i) records[i].id = static_cast<IoId>(i + 1);
  records[1].true_causes = {1};
  records[2].true_causes = {2};
  std::vector<InferredHbr> inferred{{1, 2, 1.0, "x"}, {1, 3, 1.0, "x"}};  // one right, one wrong
  auto score = score_inference(records, inferred);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 1u);
  EXPECT_EQ(score.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(score.precision(), 0.5);
  EXPECT_DOUBLE_EQ(score.recall(), 0.5);
}

TEST(RuleMatching, HighPrecisionAndRecallOnPaperScenario) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  RuleMatchingInference rules;
  auto inferred = rules.infer(trace_of(scenario));
  auto score = score_inference(trace_of(scenario), inferred);
  EXPECT_GT(score.precision(), 0.8) << "rule matching should rarely invent edges";
  EXPECT_GT(score.recall(), 0.85) << "rule matching should find nearly all true HBRs";
}

TEST(DeclarativeRules, GroupedMatcherIsMorePrecise) {
  // The declarative per-rule scanner emits an edge for every rule whose
  // right-hand side matches, so competing inputs (config vs. recv vs.
  // hardware) each produce edges; the grouped matcher arbitrates to the
  // closest input. Same recall ballpark, much lower precision.
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  auto trace = trace_of(scenario);

  auto declarative = score_inference(trace, DeclarativeRuleInference().infer(trace));
  auto grouped = score_inference(trace, RuleMatchingInference().infer(trace));
  EXPECT_GT(grouped.precision(), declarative.precision());
  EXPECT_GT(declarative.recall(), 0.5) << "declarative rules still find most HBRs";
}

TEST(DeclarativeRules, CustomRuleSetIsHonoured) {
  // Feed a one-rule set: only rib->fib edges may appear.
  std::vector<HbrRule> rules = {{"rib->fib",
                                 {IoKind::kRibUpdate, ProtoClass::kAny, true},
                                 {IoKind::kFibUpdate, ProtoClass::kAny, true},
                                 RuleScope::kSameRouter,
                                 2'000'000,
                                 0}};
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  auto trace = trace_of(scenario);
  auto edges = DeclarativeRuleInference(rules).infer(trace);
  EXPECT_FALSE(edges.empty());
  for (const InferredHbr& edge : edges) EXPECT_EQ(edge.rule, "rib->fib");
}

TEST(RuleMatching, BeatsTimestampBaseline) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  auto trace = trace_of(scenario);
  auto rule_score = score_inference(trace, RuleMatchingInference().infer(trace));
  auto ts_score = score_inference(trace, TimestampInference().infer(trace));
  EXPECT_GT(rule_score.precision(), ts_score.precision());
  EXPECT_GT(rule_score.f1(), ts_score.f1());
}

TEST(RuleMatching, PrefixFilterBetweenTimestampAndRules) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  auto trace = trace_of(scenario);
  auto prefix_score = score_inference(trace, PrefixInference().infer(trace));
  auto ts_score = score_inference(trace, TimestampInference().infer(trace));
  EXPECT_GE(prefix_score.precision(), ts_score.precision());
}

TEST(RuleMatching, FindsCrossRouterSendRecvEdges) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  auto trace = trace_of(scenario);
  auto inferred = RuleMatchingInference().infer(trace);

  RecordIndex index(trace);
  std::size_t cross_edges = 0, correct = 0;
  for (const InferredHbr& edge : inferred) {
    if (edge.rule != "send->recv") continue;
    ++cross_edges;
    const IoRecord* to = index.find(edge.to);
    ASSERT_NE(to, nullptr);
    if (to->message_id == edge.from) ++correct;
  }
  EXPECT_GT(cross_edges, 0u);
  // The vast majority of recvs must be paired with their true send; the
  // rare exceptions are identical messages sent repeatedly (same prefix or
  // same LSA), where "most recent" can pick a sibling transmission.
  EXPECT_GE(correct * 5, cross_edges * 4);
}

TEST(RuleMatching, ConfigToRibCoversSoftReconfigDelay) {
  NetworkOptions options;
  auto scenario = PaperScenario::make(options);
  scenario.network->apply_config_change(scenario.r2, "slow soft reconfig",
                                        [](RouterConfig& config) {
                                          config.bgp.quirks.soft_reconfig_delay_us = 25'000'000;
                                        });
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  auto trace = trace_of(scenario);
  auto inferred = RuleMatchingInference().infer(trace);
  const CaptureHub& hub = scenario.network->capture();

  // Find the misconfiguration record and check a config->rib edge exists
  // from it despite the 25 s gap.
  IoId config_io = kNoIo;
  for (const IoRecord& r : hub.records()) {
    if (r.kind == IoKind::kConfigChange && r.detail.find("local-pref 10") != std::string::npos) {
      config_io = r.id;
    }
  }
  ASSERT_NE(config_io, kNoIo);
  bool found = false;
  for (const InferredHbr& edge : inferred) {
    if (edge.from == config_io && edge.rule == "config->rib") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PatternMining, LearnsAndReproducesCommonChains) {
  // Train on a healthy run...
  auto train_scenario = PaperScenario::make();
  train_scenario.converge_initial();
  PatternMiner::Options options;
  options.min_confidence = 0.5;
  options.min_support = 2;
  PatternMiner miner(options);
  miner.train(trace_of(train_scenario));
  EXPECT_FALSE(miner.patterns().empty());

  // ...infer on a broken run.
  auto test_scenario = PaperScenario::make();
  test_scenario.converge_initial();
  test_scenario.misconfigure_r2_lp10();
  test_scenario.network->run_to_convergence();

  PatternMiningInference inference(std::move(miner));
  auto inferred = inference.infer(trace_of(test_scenario));
  EXPECT_FALSE(inferred.empty());
  auto score = score_inference(trace_of(test_scenario), inferred);
  // Pattern mining is the automation-over-accuracy point in the design
  // space (§4.2 warns about missed HBRs); recall is modest by construction.
  EXPECT_GT(score.recall(), 0.2);
  // Pattern mining is automation-first: it should still be much more
  // precise than the raw timestamp baseline.
  auto ts = score_inference(trace_of(test_scenario),
                            TimestampInference().infer(trace_of(test_scenario)));
  EXPECT_GT(score.precision(), ts.precision());
}

TEST(PatternMining, ConfidenceThresholdTradesPrecisionForRecall) {
  auto train_scenario = PaperScenario::make();
  train_scenario.converge_initial();

  auto test_scenario = PaperScenario::make();
  test_scenario.converge_initial();
  test_scenario.misconfigure_r2_lp10();
  test_scenario.network->run_to_convergence();
  auto trace = trace_of(test_scenario);

  auto run_at = [&](double threshold) {
    PatternMiner::Options options;
    options.min_confidence = threshold;
    options.min_support = 1;
    PatternMiner miner(options);
    miner.train(trace_of(train_scenario));
    return score_inference(trace, miner.infer(trace));
  };

  auto lax = run_at(0.05);
  auto strict = run_at(0.9);
  EXPECT_GE(strict.precision(), lax.precision());
  EXPECT_GE(lax.recall(), strict.recall());
}

TEST(Combined, UnionImprovesRecallOverRulesAlone) {
  auto train_scenario = PaperScenario::make();
  train_scenario.converge_initial();
  PatternMiner::Options miner_options;
  miner_options.min_confidence = 0.4;
  miner_options.min_support = 2;
  PatternMiner miner(miner_options);
  miner.train(trace_of(train_scenario));

  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  auto trace = trace_of(scenario);

  auto rules = std::make_shared<RuleMatchingInference>();
  auto patterns = std::make_shared<PatternMiningInference>(std::move(miner));
  CombinedInference combined({rules, patterns});

  auto rule_score = score_inference(trace, rules->infer(trace));
  auto combined_score = score_inference(trace, combined.infer(trace));
  EXPECT_GE(combined_score.recall(), rule_score.recall());
}

TEST(Combined, DedupesKeepingMaxConfidence) {
  struct Fixed : HbrInferencer {
    std::vector<InferredHbr> edges;
    std::string name() const override { return "fixed"; }
    std::vector<InferredHbr> infer(std::span<const IoRecord>) const override { return edges; }
  };
  auto a = std::make_shared<Fixed>();
  a->edges = {{1, 2, 0.4, "low"}};
  auto b = std::make_shared<Fixed>();
  b->edges = {{1, 2, 0.9, "high"}};
  CombinedInference combined({a, b});
  auto merged = combined.infer({});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].confidence, 0.9);
  EXPECT_EQ(merged[0].rule, "high");
}

TEST(RuleMatching, RobustToClockSkewAndJitter) {
  // Realistic logging imperfections: per-router clock offsets up to 2 ms
  // plus 200 us of per-record noise.
  NetworkOptions options;
  options.capture.clock_offset_us = 2'000;
  options.capture.timestamp_jitter_us = 200;
  auto scenario = PaperScenario::make(options);
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  auto trace = trace_of(scenario);
  MatcherOptions matcher_options;
  matcher_options.local_slack_us = 1'000;
  auto score = score_inference(trace, RuleMatchingInference(matcher_options).infer(trace));
  EXPECT_GT(score.recall(), 0.7) << "clock imperfections shouldn't destroy rule matching";
  EXPECT_GT(score.precision(), 0.7);
}

TEST(RuleMatching, ScalesOnChurnWorkload) {
  Rng rng(11);
  auto generated = make_ibgp_network(make_random_topology(8, 4, rng), 2);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.event_count = 40;
  ChurnWorkload churn(generated, churn_options);
  generated.network->run_to_convergence();

  auto records = generated.network->capture().records();
  auto score = score_inference(records, RuleMatchingInference().infer(records));
  EXPECT_GT(score.precision(), 0.6);
  EXPECT_GT(score.recall(), 0.7);
}

}  // namespace
}  // namespace hbguard
