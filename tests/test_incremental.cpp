#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hbguard/core/guard.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"

namespace hbguard {
namespace {

std::set<std::pair<IoId, IoId>> edge_set(const HappensBeforeGraph& graph) {
  std::set<std::pair<IoId, IoId>> edges;
  graph.for_each_edge([&](const HbgEdge& edge) { edges.emplace(edge.from, edge.to); });
  return edges;
}

std::vector<IoRecord> churn_trace(std::uint64_t seed) {
  NetworkOptions options;
  options.seed = seed;
  Rng rng(seed);
  auto generated = make_ibgp_network(make_random_topology(9, 4, rng), 3, options);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.seed = seed + 3;
  churn_options.event_count = 35;
  ChurnWorkload churn(generated, churn_options);
  generated.network->run_to_convergence();
  return generated.network->capture().records();
}

TEST(Incremental, ChunkedAppendsEqualOneShot) {
  auto records = churn_trace(321);
  IncrementalHbgBuilder one_shot;
  one_shot.append(records);

  IncrementalHbgBuilder chunked;
  std::size_t offset = 0;
  std::size_t chunk = 7;
  while (offset < records.size()) {
    std::size_t take = std::min(chunk, records.size() - offset);
    chunked.append(std::span<const IoRecord>(records).subspan(offset, take));
    offset += take;
    chunk = chunk * 2 + 1;  // uneven chunk sizes
  }
  EXPECT_EQ(edge_set(one_shot.graph()), edge_set(chunked.graph()));
  EXPECT_EQ(chunked.records_ingested(), records.size());
}

TEST(Incremental, LateCauseUnderClockNoiseStillLinked) {
  // Under per-record jitter a cause can be logged after its effect; the
  // engine must emit the edge when the late cause arrives.
  NetworkOptions options;
  options.capture.timestamp_jitter_us = 300;
  options.seed = 5;
  auto scenario = PaperScenario::make(options);
  scenario.converge_initial();
  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  auto records = scenario.network->capture().records();

  MatcherOptions matcher;
  matcher.local_slack_us = 1'000;
  IncrementalHbgBuilder builder(matcher);
  builder.append(records);

  IoId fault = kNoIo, cause = kNoIo;
  for (const IoRecord& r : records) {
    if (r.kind == IoKind::kFibUpdate && r.router == scenario.r1 && r.prefix.has_value() &&
        *r.prefix == scenario.prefix_p && !r.withdraw) {
      fault = r.id;
    }
    if (r.kind == IoKind::kConfigChange && r.config_version == bad) cause = r.id;
  }
  ASSERT_NE(fault, kNoIo);
  auto ancestors = builder.graph().ancestors(fault, 0.9);
  EXPECT_TRUE(std::binary_search(ancestors.begin(), ancestors.end(), cause))
      << "provenance chain must survive clock noise in incremental mode";
}

TEST(Incremental, GuardIncrementalAndScratchAgree) {
  // Reference: the same rules, but the HBG rebuilt from the full history on
  // every scan.
  auto run = [](bool incremental) {
    auto scenario = PaperScenario::make();
    scenario.converge_initial();
    PolicyList policies;
    policies.push_back(std::make_shared<LoopFreedomPolicy>(scenario.prefix_p));
    policies.push_back(std::make_shared<PreferredExitPolicy>(
        scenario.prefix_p, scenario.r2, PaperScenario::kUplink2, scenario.r1,
        PaperScenario::kUplink1));
    GuardOptions options;
    if (!incremental) options.inference = std::make_shared<RuleMatchingInference>(options.matcher);
    Guard guard(*scenario.network, policies, options);
    scenario.misconfigure_r2_lp10();
    auto report = guard.run();
    return std::make_tuple(report.incidents.size(), report.reverts,
                           scenario.fib_exits_via(scenario.r3, scenario.r2), report.digest());
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace hbguard
