#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/render.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/sim/scenario.hpp"

namespace hbguard {
namespace {

IoRecord vertex(IoId id, RouterId router = 0, IoKind kind = IoKind::kFibUpdate) {
  IoRecord r;
  r.id = id;
  r.router = router;
  r.kind = kind;
  return r;
}

class GraphFixture : public ::testing::Test {
 protected:
  // 1 -> 2 -> 4, 3 -> 4, 4 -> 5 (a small DAG with two roots: 1 and 3)
  GraphFixture() {
    for (IoId id = 1; id <= 5; ++id) graph_.add_vertex(vertex(id, id % 2));
    graph_.add_edge({1, 2, 1.0, "a"});
    graph_.add_edge({2, 4, 1.0, "b"});
    graph_.add_edge({3, 4, 0.5, "c"});
    graph_.add_edge({4, 5, 1.0, "d"});
  }
  HappensBeforeGraph graph_;
};

TEST_F(GraphFixture, Counts) {
  EXPECT_EQ(graph_.vertex_count(), 5u);
  EXPECT_EQ(graph_.edge_count(), 4u);
}

TEST_F(GraphFixture, AncestorsClosure) {
  auto up = graph_.ancestors(5);
  EXPECT_EQ(up, (std::vector<IoId>{1, 2, 3, 4}));
  EXPECT_TRUE(graph_.ancestors(1).empty());
}

TEST_F(GraphFixture, DescendantsClosure) {
  auto down = graph_.descendants(1);
  EXPECT_EQ(down, (std::vector<IoId>{2, 4, 5}));
}

TEST_F(GraphFixture, ConfidenceFilterPrunesTraversal) {
  auto up = graph_.ancestors(5, 0.9);
  EXPECT_EQ(up, (std::vector<IoId>{1, 2, 4}));  // edge 3->4 (0.5) filtered out
}

TEST_F(GraphFixture, RootCauses) {
  auto roots = graph_.root_causes(5);
  EXPECT_EQ(roots, (std::vector<IoId>{1, 3}));
  auto self_root = graph_.root_causes(1);
  EXPECT_EQ(self_root, (std::vector<IoId>{1}));
}

TEST_F(GraphFixture, PathFromRoot) {
  auto path = graph_.path_from(1, 5);
  EXPECT_EQ(path, (std::vector<IoId>{1, 2, 4, 5}));
  EXPECT_TRUE(graph_.path_from(5, 1).empty());  // edges are directed
}

TEST_F(GraphFixture, DuplicateEdgeKeepsMaxConfidence) {
  graph_.add_edge({3, 4, 0.9, "c2"});
  EXPECT_EQ(graph_.edge_count(), 4u);  // no new edge
  auto up = graph_.ancestors(5, 0.8);
  EXPECT_TRUE(std::binary_search(up.begin(), up.end(), 3));  // confidence was upgraded
}

TEST_F(GraphFixture, SelfEdgeIgnored) {
  graph_.add_edge({1, 1, 1.0, "loop"});
  EXPECT_EQ(graph_.edge_count(), 4u);
}

TEST_F(GraphFixture, EdgeToUnknownVertexThrows) {
  EXPECT_THROW(graph_.add_edge({1, 99, 1.0, "x"}), std::invalid_argument);
}

TEST_F(GraphFixture, AllLeaves) {
  auto leaves = graph_.all_leaves();
  EXPECT_EQ(std::set<IoId>(leaves.begin(), leaves.end()), (std::set<IoId>{1, 3}));
}

// ---------------------------------------------------------------------------
// End-to-end: Fig. 4 — the HBG of the Fig. 2 scenario names R2's config
// change as the root cause of R1's FIB change.

class Fig4Fixture : public ::testing::Test {
 protected:
  Fig4Fixture() : scenario_(PaperScenario::make()) {
    scenario_.converge_initial();
    config_version_ = scenario_.misconfigure_r2_lp10();
    scenario_.network->run_to_convergence();
    const auto& records = scenario_.network->capture().records();
    graph_ = HbgBuilder::build(records, RuleMatchingInference());

    // R1's FIB update that switched P to the external uplink — the "fault"
    // vertex in Fig. 4.
    for (const IoRecord& r : records) {
      if (r.kind == IoKind::kFibUpdate && r.router == scenario_.r1 && r.prefix.has_value() &&
          *r.prefix == scenario_.prefix_p && !r.withdraw &&
          r.detail.find("ext(uplink1)") != std::string::npos) {
        fault_ = r.id;
      }
    }
    for (const IoRecord& r : records) {
      if (r.kind == IoKind::kConfigChange && r.config_version == config_version_) {
        cause_ = r.id;
      }
    }
  }

  PaperScenario scenario_;
  ConfigVersion config_version_ = kNoVersion;
  HappensBeforeGraph graph_;
  IoId fault_ = kNoIo;
  IoId cause_ = kNoIo;
};

TEST_F(Fig4Fixture, RootCauseIsTheConfigChange) {
  ASSERT_NE(fault_, kNoIo);
  ASSERT_NE(cause_, kNoIo);
  auto roots = graph_.root_causes(fault_);
  EXPECT_NE(std::find(roots.begin(), roots.end(), cause_), roots.end())
      << "the LP=10 config change must be among the root causes of R1's FIB flip";
}

TEST_F(Fig4Fixture, GroundTruthAgrees) {
  auto truth = HbgBuilder::build(scenario_.network->capture().records(), GroundTruthInference());
  auto roots = truth.root_causes(fault_);
  EXPECT_NE(std::find(roots.begin(), roots.end(), cause_), roots.end());
}

TEST_F(Fig4Fixture, FaultChainRunsThroughR2) {
  auto path = graph_.path_from(cause_, fault_);
  ASSERT_GE(path.size(), 3u);
  // The chain must pass through at least one R2 I/O (the RIB update and
  // iBGP advertisement of Fig. 4) before reaching R1.
  bool through_r2 = false;
  for (IoId id : path) {
    const IoRecord* r = graph_.record(id);
    ASSERT_NE(r, nullptr);
    if (r->router == scenario_.r2 && id != cause_) through_r2 = true;
  }
  EXPECT_TRUE(through_r2);
  EXPECT_EQ(graph_.record(path.front())->kind, IoKind::kConfigChange);
  EXPECT_EQ(graph_.record(path.back())->kind, IoKind::kFibUpdate);
}

TEST_F(Fig4Fixture, RenderersProduceOutput) {
  std::string dot = to_dot(graph_);
  EXPECT_NE(dot.find("digraph hbg"), std::string::npos);
  EXPECT_NE(dot.find("config change"), std::string::npos);

  std::string timeline = to_timeline(graph_, &scenario_.network->topology());
  EXPECT_NE(timeline.find("=== R1 ==="), std::string::npos);
  EXPECT_NE(timeline.find("=== R2 ==="), std::string::npos);
  EXPECT_NE(timeline.find("cross-router edges"), std::string::npos);

  auto path = graph_.path_from(cause_, fault_);
  std::string chain = render_chain(graph_, path);
  EXPECT_NE(chain.find("cause: R1 config change"), std::string::npos);  // R2 has dense id 1
}

}  // namespace
}  // namespace hbguard
