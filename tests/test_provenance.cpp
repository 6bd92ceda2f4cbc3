#include <gtest/gtest.h>

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/provenance/distributed_hbg.hpp"
#include "hbguard/provenance/root_cause.hpp"
#include "hbguard/sim/scenario.hpp"

namespace hbguard {
namespace {

class ProvenanceFixture : public ::testing::Test {
 protected:
  ProvenanceFixture() : scenario_(PaperScenario::make()) {
    scenario_.converge_initial();
    bad_version_ = scenario_.misconfigure_r2_lp10();
    scenario_.network->run_to_convergence();
    graph_ = HbgBuilder::build(scenario_.network->capture().records(), RuleMatchingInference());
    fault_ = find_fault();
  }

  IoId find_fault() const {
    IoId result = kNoIo;
    for (const IoRecord& r : scenario_.network->capture().records()) {
      if (r.kind == IoKind::kFibUpdate && r.router == scenario_.r1 && r.prefix.has_value() &&
          *r.prefix == scenario_.prefix_p && !r.withdraw &&
          r.detail.find("ext(") != std::string::npos) {
        result = r.id;
      }
    }
    return result;
  }

  PaperScenario scenario_;
  ConfigVersion bad_version_ = kNoVersion;
  HappensBeforeGraph graph_;
  IoId fault_ = kNoIo;
};

TEST_F(ProvenanceFixture, ConfigChangeRankedFirst) {
  RootCauseAnalyzer analyzer;
  auto result = analyzer.analyze(graph_, fault_);
  ASSERT_FALSE(result.causes.empty());
  EXPECT_EQ(result.causes.front().kind, CauseKind::kConfigChange);
  EXPECT_EQ(result.causes.front().record.config_version, bad_version_);
}

TEST_F(ProvenanceFixture, RevertibleFindsTheBadChange) {
  RootCauseAnalyzer analyzer;
  auto result = analyzer.analyze(graph_, fault_);
  const RootCause* revertible = result.revertible();
  ASSERT_NE(revertible, nullptr);
  EXPECT_EQ(revertible->record.config_version, bad_version_);
  EXPECT_EQ(revertible->record.router, scenario_.r2);
}

TEST_F(ProvenanceFixture, ChainConnectsCauseToFault) {
  RootCauseAnalyzer analyzer;
  auto result = analyzer.analyze(graph_, fault_);
  const RootCause* cause = result.revertible();
  ASSERT_NE(cause, nullptr);
  ASSERT_GE(cause->chain.size(), 2u);
  EXPECT_EQ(cause->chain.front(), cause->io);
  EXPECT_EQ(cause->chain.back(), fault_);
}

TEST_F(ProvenanceFixture, AnalyzeAllMergesDuplicates) {
  // Two faults with the same root cause yield one deduplicated cause entry
  // for the config change.
  IoId second_fault = kNoIo;
  for (const IoRecord& r : scenario_.network->capture().records()) {
    if (r.kind == IoKind::kFibUpdate && r.router == scenario_.r3 && r.prefix.has_value() &&
        *r.prefix == scenario_.prefix_p) {
      second_fault = r.id;
    }
  }
  ASSERT_NE(second_fault, kNoIo);
  RootCauseAnalyzer analyzer;
  auto result = analyzer.analyze_all(graph_, {fault_, second_fault});
  std::size_t config_causes = 0;
  for (const RootCause& cause : result.causes) {
    if (cause.record.config_version == bad_version_) ++config_causes;
  }
  EXPECT_EQ(config_causes, 1u);
}

TEST_F(ProvenanceFixture, RenderMentionsTheChange) {
  RootCauseAnalyzer analyzer;
  auto result = analyzer.analyze(graph_, fault_);
  std::string report = RootCauseAnalyzer::render(graph_, result);
  EXPECT_NE(report.find("config change"), std::string::npos);
  EXPECT_NE(report.find("local-pref 10"), std::string::npos);
}

TEST_F(ProvenanceFixture, GroundTruthOracleAgrees) {
  auto truth = HbgBuilder::build(scenario_.network->capture().records(), GroundTruthInference());
  RootCauseAnalyzer analyzer;
  auto result = analyzer.analyze(truth, fault_);
  const RootCause* revertible = result.revertible();
  ASSERT_NE(revertible, nullptr);
  EXPECT_EQ(revertible->record.config_version, bad_version_);
}

TEST(Provenance, UplinkFailureIsEnvironmental) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.fail_uplink2();
  scenario.network->run_to_convergence();

  auto graph =
      HbgBuilder::build(scenario.network->capture().records(), RuleMatchingInference());
  // R1's FIB flip to its own uplink was caused by the hardware event.
  IoId fault = kNoIo;
  for (const IoRecord& r : scenario.network->capture().records()) {
    if (r.kind == IoKind::kFibUpdate && r.router == scenario.r1 && r.prefix.has_value() &&
        *r.prefix == scenario.prefix_p && !r.withdraw) {
      fault = r.id;
    }
  }
  ASSERT_NE(fault, kNoIo);
  RootCauseAnalyzer analyzer;
  auto result = analyzer.analyze(graph, fault);
  ASSERT_FALSE(result.causes.empty());
  EXPECT_EQ(result.revertible(), nullptr) << "a hardware event is not revertible";
  bool hardware_cause = false;
  for (const RootCause& cause : result.causes) {
    if (cause.kind == CauseKind::kHardwareStatus && cause.record.router == scenario.r2) {
      hardware_cause = true;
    }
  }
  EXPECT_TRUE(hardware_cause);
}

TEST(Provenance, ExternalAdvertAsLeafCause) {
  auto scenario = PaperScenario::make();
  scenario.network->run_to_convergence();
  scenario.advertise_p_via_r1();
  scenario.network->run_to_convergence();

  auto graph =
      HbgBuilder::build(scenario.network->capture().records(), RuleMatchingInference());
  IoId fault = kNoIo;
  for (const IoRecord& r : scenario.network->capture().records()) {
    if (r.kind == IoKind::kFibUpdate && r.router == scenario.r3 && r.prefix.has_value() &&
        *r.prefix == scenario.prefix_p) {
      fault = r.id;
    }
  }
  ASSERT_NE(fault, kNoIo);
  RootCauseAnalyzer analyzer;
  auto result = analyzer.analyze(graph, fault);
  bool external = false;
  for (const RootCause& cause : result.causes) {
    if (cause.kind == CauseKind::kExternalAdvert) external = true;
  }
  EXPECT_TRUE(external) << "the eBGP advertisement from outside the domain is the origin";
}

// ---------------------------------------------------------------------------
// Distributed HBG storage (§5)

TEST_F(ProvenanceFixture, DistributedQueryMatchesCentralized) {
  DistributedHbgStore store(graph_);
  EXPECT_EQ(store.shard_count(), 3u);
  EXPECT_GT(store.cross_edge_count(), 0u);

  DistributedQueryStats stats;
  auto distributed_roots = store.root_causes(fault_, 0.0, &stats);
  auto central_roots = graph_.root_causes(fault_);
  EXPECT_EQ(distributed_roots, central_roots);

  // The Fig. 2 chain crosses routers: the query must have shipped partial
  // paths and contacted more than one router.
  EXPECT_GT(stats.messages, 0u);
  EXPECT_GE(stats.routers_contacted, 2u);
  EXPECT_GT(stats.edges_walked, 0u);
}

TEST_F(ProvenanceFixture, DistributedShardsContainOnlyOwnIos) {
  DistributedHbgStore store(graph_);
  for (RouterId router : {scenario_.r1, scenario_.r2, scenario_.r3}) {
    const HappensBeforeGraph* shard = store.subgraph(router);
    ASSERT_NE(shard, nullptr);
    shard->for_each_vertex([&](const IoRecord& record) {
      EXPECT_EQ(record.router, router);
    });
  }
}

TEST_F(ProvenanceFixture, DistributedConfidenceFilterApplies) {
  DistributedHbgStore store(graph_);
  auto strict = store.root_causes(fault_, 0.99);
  auto central = graph_.root_causes(fault_, 0.99);
  EXPECT_EQ(strict, central);
}

TEST(DistributedHbg, LocalOnlyQueryNeedsNoMessages) {
  // A fault whose whole chain lives on one router (e.g. a connected-route
  // FIB install from the initial config) resolves without any messages.
  auto scenario = PaperScenario::make();
  scenario.network->run_to_convergence();
  auto graph = HbgBuilder::build(scenario.network->capture().records(),
                                 RuleMatchingInference());
  IoId local_fault = kNoIo;
  for (const IoRecord& r : scenario.network->capture().records()) {
    if (r.kind == IoKind::kFibUpdate && r.protocol == Protocol::kConnected &&
        r.router == scenario.r1) {
      local_fault = r.id;
    }
  }
  ASSERT_NE(local_fault, kNoIo);
  DistributedHbgStore store(graph);
  DistributedQueryStats stats;
  auto roots = store.root_causes(local_fault, 0.0, &stats);
  EXPECT_EQ(roots, graph.root_causes(local_fault));
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.routers_contacted, 1u);
}

}  // namespace
}  // namespace hbguard
