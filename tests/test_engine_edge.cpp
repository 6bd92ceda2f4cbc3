// Edge cases of the protocol engines and snapshot options not covered by
// the scenario-driven suites.
#include <gtest/gtest.h>

#include "hbguard/core/guard.hpp"
#include "hbguard/hbr/pattern_miner.hpp"
#include "hbguard/proto/bgp/engine.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/snapshot/incremental.hpp"

namespace hbguard {
namespace {

// ---------------------------------------------------------------------------
// BGP engine edge cases (standalone engine, no simulator).

class EngineEdgeFixture : public ::testing::Test {
 protected:
  EngineEdgeFixture() {
    config_.bgp.enabled = true;
    BgpSessionConfig uplink;
    uplink.name = "uplink";
    uplink.external = true;
    uplink.peer_as = 64500;
    config_.bgp.sessions.push_back(uplink);
    BgpSessionConfig ibgp_a;
    ibgp_a.name = "peer-a";
    ibgp_a.peer = 2;
    ibgp_a.peer_as = 65000;
    config_.bgp.sessions.push_back(ibgp_a);
    BgpSessionConfig ibgp_b;
    ibgp_b.name = "peer-b";
    ibgp_b.peer = 3;
    ibgp_b.peer_as = 65000;
    config_.bgp.sessions.push_back(ibgp_b);

    engine_ = std::make_unique<BgpEngine>(
        1, 65000,
        BgpEngine::Callbacks{
            [this](const std::string& session, const BgpUpdateMsg& msg) {
              sent_.emplace_back(session, msg);
            },
            nullptr, [](RouterId) { return std::uint32_t{1}; }, [] { return SimTime{0}; }});
    engine_->set_config(&config_);
    engine_->start();
  }

  BgpUpdateMsg external_advert(const char* prefix, std::uint32_t med = 0) {
    BgpUpdateMsg msg;
    msg.prefix = *Prefix::parse(prefix);
    msg.attrs.as_path = {64500};
    msg.attrs.med = med;
    msg.attrs.next_hop = BgpNextHop::via_external("uplink");
    return msg;
  }

  RouterConfig config_;
  std::unique_ptr<BgpEngine> engine_;
  std::vector<std::pair<std::string, BgpUpdateMsg>> sent_;
};

TEST_F(EngineEdgeFixture, WithdrawOfUnknownPrefixIsNoop) {
  BgpUpdateMsg withdraw;
  withdraw.prefix = *Prefix::parse("203.0.113.0/24");
  withdraw.withdraw = true;
  engine_->handle_update("uplink", withdraw);
  EXPECT_TRUE(sent_.empty());
  EXPECT_TRUE(engine_->loc_rib().empty());
}

TEST_F(EngineEdgeFixture, ExportPolicyCanDenyOnePeerOnly) {
  RouteMap deny_all;
  deny_all.name = "deny";
  RouteMapClause deny;
  deny.action = RouteMapClause::Action::kDeny;
  deny_all.clauses.push_back(deny);
  deny_all.default_permit = false;
  config_.route_maps["deny"] = deny_all;
  config_.bgp.find_session("peer-b")->export_policy = "deny";

  engine_->handle_update("uplink", external_advert("203.0.113.0/24"));
  std::size_t to_a = 0, to_b = 0;
  for (const auto& [session, msg] : sent_) {
    if (session == "peer-a") ++to_a;
    if (session == "peer-b") ++to_b;
  }
  EXPECT_EQ(to_a, 1u);
  EXPECT_EQ(to_b, 0u);
}

TEST_F(EngineEdgeFixture, ExportPolicySetMedVisibleOnWire) {
  RouteMap set_med;
  set_med.name = "med50";
  RouteMapClause clause;
  clause.set_med = 50;
  set_med.clauses.push_back(clause);
  config_.route_maps["med50"] = set_med;
  config_.bgp.find_session("peer-a")->export_policy = "med50";

  engine_->handle_update("uplink", external_advert("203.0.113.0/24"));
  bool found = false;
  for (const auto& [session, msg] : sent_) {
    if (session == "peer-a") {
      EXPECT_EQ(msg.attrs.med, 50u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(EngineEdgeFixture, AdjRibOutTracksWhatWasSent) {
  engine_->handle_update("uplink", external_advert("203.0.113.0/24"));
  auto out = engine_->adj_rib_out("peer-a");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].prefix.to_string(), "203.0.113.0/24");

  BgpUpdateMsg withdraw;
  withdraw.prefix = *Prefix::parse("203.0.113.0/24");
  withdraw.withdraw = true;
  engine_->handle_update("uplink", withdraw);
  EXPECT_TRUE(engine_->adj_rib_out("peer-a").empty());
}

TEST_F(EngineEdgeFixture, SessionFlapResendsState) {
  engine_->handle_update("uplink", external_advert("203.0.113.0/24"));
  sent_.clear();
  engine_->set_session_state("peer-a", false);
  EXPECT_TRUE(sent_.empty());  // nothing to send on a down session
  engine_->set_session_state("peer-a", true);
  bool readvertised = false;
  for (const auto& [session, msg] : sent_) {
    if (session == "peer-a" && !msg.withdraw) readvertised = true;
  }
  EXPECT_TRUE(readvertised);
}

TEST_F(EngineEdgeFixture, MedChangeOnSamePathTriggersUpdateNotChurn) {
  engine_->handle_update("uplink", external_advert("203.0.113.0/24", 10));
  sent_.clear();
  engine_->handle_update("uplink", external_advert("203.0.113.0/24", 20));
  // Attribute change: one fresh advertisement per iBGP peer, no withdraws.
  std::size_t adverts = 0;
  for (const auto& [session, msg] : sent_) {
    EXPECT_FALSE(msg.withdraw);
    ++adverts;
  }
  EXPECT_EQ(adverts, 2u);
}

// ---------------------------------------------------------------------------
// Snapshot option toggles.

TEST(SnapshotOptions, RequireSendForRecvCanBeDisabled) {
  NetworkOptions options;
  options.capture.loss_probability = 0.25;  // heavy loss: many orphan recvs
  options.seed = 11;
  auto scenario = PaperScenario::make(options);
  scenario.converge_initial();
  auto records = scenario.network->capture().records();
  auto hbg = HbgBuilder::build(records, RuleMatchingInference());

  ConsistencyReport strict_report;  // default: require_send_for_recv = true
  IncrementalSnapshotter::build({}, records, hbg, {}, &strict_report);

  ConsistencyOptions lax_options;
  lax_options.require_send_for_recv = false;
  ConsistencyReport lax_report;
  IncrementalSnapshotter::build(lax_options, records, hbg, {}, &lax_report);

  EXPECT_GE(strict_report.total_rewound(), lax_report.total_rewound())
      << "the strict mode must be at least as conservative";
  EXPECT_EQ(lax_report.unmatched_recvs, 0u);  // the check is off
}

TEST(GuardInference, PluggableCombinedInferenceHealsFig2) {
  // Train a pattern miner on a healthy run, combine with rules, and hand
  // the combination to the guard.
  auto train = PaperScenario::make();
  train.converge_initial();
  PatternMiner::Options miner_options;
  miner_options.min_confidence = 0.9;
  PatternMiner miner(miner_options);
  miner.train(train.network->capture().records());

  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  PolicyList policies;
  policies.push_back(std::make_shared<LoopFreedomPolicy>(scenario.prefix_p));
  policies.push_back(std::make_shared<PreferredExitPolicy>(
      scenario.prefix_p, scenario.r2, PaperScenario::kUplink2, scenario.r1,
      PaperScenario::kUplink1));

  GuardOptions options;
  options.inference = std::make_shared<CombinedInference>(
      std::vector<std::shared_ptr<HbrInferencer>>{
          std::make_shared<RuleMatchingInference>(),
          std::make_shared<PatternMiningInference>(std::move(miner))});
  Guard guard(*scenario.network, policies, options);

  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  guard.run();
  EXPECT_TRUE(scenario.network->configs().record(bad).reverted);
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
}

}  // namespace
}  // namespace hbguard
