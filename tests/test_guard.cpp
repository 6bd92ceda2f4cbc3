#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "hbguard/core/guard.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/snapshot/naive.hpp"

namespace hbguard {
namespace {

TEST(Guard, CleanNetworkNoIncidents) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.repair = RepairMode::kReport;
  Guard guard(*scenario.network, paper_policies(scenario), options);
  auto report = guard.run();
  EXPECT_TRUE(report.incidents.empty());
  EXPECT_GT(report.clean_scans, 0u);
}

TEST(Guard, ReportModeDiagnosesFig2) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.repair = RepairMode::kReport;
  Guard guard(*scenario.network, paper_policies(scenario), options);

  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  auto report = guard.run();

  ASSERT_FALSE(report.incidents.empty());
  const GuardIncident& incident = report.incidents.front();
  EXPECT_EQ(incident.action, "reported");
  ASSERT_FALSE(incident.causes.empty());
  bool found = false;
  for (const RootCause& cause : incident.causes) {
    if (cause.record.config_version == bad) found = true;
  }
  EXPECT_TRUE(found) << "the incident must name the LP=10 change as a cause";
  // No repair: violation persists.
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));
  EXPECT_FALSE(scenario.network->configs().record(bad).reverted);
}

TEST(Guard, RevertModeHealsFig2) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  Guard guard(*scenario.network, paper_policies(scenario));  // default: revert

  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  auto report = guard.run();

  EXPECT_EQ(report.reverts, 1u);
  EXPECT_TRUE(scenario.network->configs().record(bad).reverted);
  // The network is back in the compliant state.
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r3, scenario.r2));
  // And the guard's final scans were clean.
  EXPECT_GT(report.clean_scans, 0u);
}

TEST(Guard, RevertModeWithGroundTruthHbg) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.inference = std::make_shared<GroundTruthInference>();
  Guard guard(*scenario.network, paper_policies(scenario), options);
  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  auto report = guard.run();
  EXPECT_EQ(report.reverts, 1u);
  EXPECT_TRUE(scenario.network->configs().record(bad).reverted);
}

TEST(Guard, UplinkFailureReportedNotReverted) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  Guard guard(*scenario.network, paper_policies(scenario));

  scenario.fail_uplink2();
  auto report = guard.run();

  // Failover to R1 is policy-compliant; there may be a transient violation
  // but no revert may ever fire (§8: blocking a withdrawal helps nothing).
  EXPECT_EQ(report.reverts, 0u);
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));
}

TEST(Guard, BlockModeShieldsDataPlane) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.repair = RepairMode::kBlock;
  Guard guard(*scenario.network, paper_policies(scenario), options);

  scenario.misconfigure_r2_lp10();
  auto report = guard.run();

  EXPECT_GT(report.blocked_updates, 0u);
  // Data plane still compliant...
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));
  // ...while the control plane diverged (the §2 hazard in waiting).
  const FibEntry* control = scenario.router1().control_fib().find(scenario.prefix_p);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->action, FibEntry::Action::kExternal);
}

TEST(Guard, ProposeOnlyQueuesRepairForApproval) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.repair = RepairMode::kProposeOnly;
  Guard guard(*scenario.network, paper_policies(scenario), options);

  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  auto report = guard.run();

  // Diagnosed like kReport — but the revert is queued, not executed.
  ASSERT_FALSE(report.incidents.empty());
  EXPECT_NE(report.incidents.front().action.find("proposal #1"), std::string::npos)
      << report.incidents.front().action;
  EXPECT_NE(report.incidents.front().action.find("awaiting approval"), std::string::npos);
  EXPECT_EQ(report.reverts, 0u);
  EXPECT_FALSE(scenario.network->configs().record(bad).reverted);
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));  // violation persists

  ASSERT_EQ(guard.proposals().size(), 1u);
  const RepairProposal& proposal = guard.proposals().front();
  EXPECT_EQ(proposal.id, 1u);
  EXPECT_EQ(proposal.cause_version, bad);
  EXPECT_EQ(proposal.status, RepairProposal::Status::kPending);
  EXPECT_EQ(proposal.executed_version, kNoVersion);

  // Unknown ids and double-settling fail with a message.
  EXPECT_FALSE(guard.approve_proposal(99).ok);
  auto declined = guard.decline_proposal(1);
  EXPECT_TRUE(declined.ok) << declined.message;
  EXPECT_EQ(guard.proposals().front().status, RepairProposal::Status::kDeclined);
  EXPECT_FALSE(guard.decline_proposal(1).ok);
  EXPECT_FALSE(guard.approve_proposal(1).ok);
  EXPECT_FALSE(scenario.network->configs().record(bad).reverted);
}

TEST(Guard, ProposeOnlyApprovalExecutesRevert) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.repair = RepairMode::kProposeOnly;
  Guard guard(*scenario.network, paper_policies(scenario), options);

  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  guard.run();
  ASSERT_EQ(guard.proposals().size(), 1u);

  auto approved = guard.approve_proposal(1);
  ASSERT_TRUE(approved.ok) << approved.message;
  EXPECT_TRUE(scenario.network->configs().record(bad).reverted);
  const RepairProposal& proposal = guard.proposals().front();
  EXPECT_EQ(proposal.status, RepairProposal::Status::kApproved);
  EXPECT_NE(proposal.executed_version, kNoVersion);

  // Let the revert propagate under guard; the network heals.
  auto report = guard.run();
  EXPECT_EQ(report.reverts, 1u);
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));
  EXPECT_GT(report.clean_scans, 0u);

  // revert_repair rolls the executed repair back (the operator decided the
  // change was intended after all); the original change is back in force.
  auto rolled_back = guard.revert_repair(1);
  ASSERT_TRUE(rolled_back.ok) << rolled_back.message;
  EXPECT_EQ(guard.proposals().front().status, RepairProposal::Status::kDeclined);
  EXPECT_EQ(guard.proposals().front().executed_version, kNoVersion);
  scenario.network->run_to_convergence();
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r1));  // violating state again
  // No executed repair left to roll back.
  EXPECT_FALSE(guard.revert_repair(1).ok);
}

TEST(Guard, EarlyBlockLearnsAcrossIncidents) {
  auto scenario = PaperScenario::make();
  // Slow soft reconfiguration so the config input is visible to the guard
  // well before its FIB fallout (the window early blocking exploits).
  scenario.network->apply_config_change(scenario.r2, "set slow soft reconfiguration",
                                        [](RouterConfig& config) {
                                          config.bgp.quirks.soft_reconfig_delay_us = 400'000;
                                        });
  scenario.converge_initial();

  GuardOptions options;
  options.repair = RepairMode::kEarlyBlock;
  options.scan_interval_us = 100'000;
  Guard guard(*scenario.network, paper_policies(scenario), options);

  // First offence: the guard has nothing learned — the violation happens
  // and is reverted reactively.
  scenario.misconfigure_r2_lp10();
  guard.run();
  EXPECT_EQ(guard.report().reverts, 1u);
  EXPECT_EQ(guard.report().early_reverts, 0u);
  EXPECT_GT(guard.early_block_model().known_patterns(), 0u);

  // Second offence, same change: predicted from the learned EC behaviour
  // and reverted *before* any violation reaches the data plane.
  scenario.misconfigure_r2_lp10();
  auto report = guard.run();
  EXPECT_EQ(report.early_reverts, 1u);
  EXPECT_EQ(report.reverts, 1u) << "no additional reactive revert was needed";
  EXPECT_TRUE(scenario.fib_exits_via(scenario.r1, scenario.r2));

  // The learned keys (router, change signature, EC signature) and their
  // outcome counts, pinned as literals: how the guard derives a
  // destination's EC signature must not move them.
  std::vector<std::string> learned;
  for (const auto& [key, stats] : guard.early_block_model().stats()) {
    learned.push_back(std::to_string(key.router) + " | " + key.change_signature + " | " +
                      key.ec_signature + " | " + std::to_string(stats.violations) + "/" +
                      std::to_string(stats.benign));
  }
  EXPECT_EQ(learned, (std::vector<std::string>{
                         "1 | early revert of v7 | 0:F1;1:Xuplink2;2:F1; | 0/3",
                         "1 | set local-pref 10 on uplink2 import | 0:F1;1:Xuplink2;2:F1; | 3/0",
                         "1 | set slow soft reconfiguration | 0:-;1:-;2:-; | 0/3",
                     }));
}

TEST(Guard, RepeatViolationNotDoubleReported) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.repair = RepairMode::kReport;
  Guard guard(*scenario.network, paper_policies(scenario), options);
  scenario.misconfigure_r2_lp10();
  guard.run();
  std::size_t incidents = guard.report().incidents.size();
  // More scans over the same persistent violation add no new incidents.
  guard.scan();
  guard.scan();
  EXPECT_EQ(guard.report().incidents.size(), incidents);
}

TEST(Guard, ProvenanceStartsAtTheViolatingRoutersLatestUpdate) {
  // R0 forwards P to R1, which then withdraws P: R0's traffic blackholes.
  // P's latest update is R1's withdrawal, and other prefixes change in
  // between, but provenance must start from R0's own latest update to P.
  const Prefix p = *Prefix::parse("10.0.0.0/24");
  const Prefix q = *Prefix::parse("10.9.0.0/24");
  const Prefix r = *Prefix::parse("10.8.0.0/16");
  auto fib = [](IoId id, RouterId router, std::uint64_t seq, const Prefix& prefix,
                std::optional<RouterId> next_hop) {
    IoRecord record;
    record.id = id;
    record.router = router;
    record.router_seq = seq;
    record.kind = IoKind::kFibUpdate;
    record.logged_time = record.true_time = static_cast<SimTime>(id) * 100;
    record.prefix = prefix;
    if (next_hop.has_value()) {
      FibEntry entry;
      entry.prefix = prefix;
      entry.action = FibEntry::Action::kForward;
      entry.next_hop = *next_hop;
      record.fib_entry = entry;
    } else {
      record.withdraw = true;
    }
    return record;
  };
  std::vector<IoRecord> records = {
      fib(1, 1, 1, p, 2),             // R1 routes P towards R2
      fib(2, 0, 1, p, 1),             // R0 routes P to R1: the violating update
      fib(3, 0, 2, q, 1),             // other prefixes in between, on both
      fib(4, 1, 2, q, 2),             // routers
      fib(5, 1, 3, p, std::nullopt),  // R1 withdraws P: P's latest update
      fib(6, 2, 1, r, 0),
  };

  Network network(Topology{}, NetworkOptions{});
  GuardOptions options;
  options.repair = RepairMode::kReport;
  options.num_threads = 1;
  PolicyList policies = {std::make_shared<BlackholeFreedomPolicy>(p),
                         std::make_shared<LoopFreedomPolicy>(q)};
  Guard guard(network, policies, options);
  for (IoRecord& record : records) {
    SimTime at = record.logged_time;
    network.capture().deliver(std::move(record), at);
  }
  network.sim().run(700);
  std::vector<Violation> violations = guard.scan();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].router, 0u);
  EXPECT_EQ(violations[0].prefix, p);

  ASSERT_EQ(guard.report().incidents.size(), 1u);
  const GuardIncident& incident = guard.report().incidents[0];
  ASSERT_FALSE(incident.causes.empty());
  for (const RootCause& cause : incident.causes) {
    ASSERT_FALSE(cause.chain.empty());
    EXPECT_EQ(cause.chain.back(), 2u) << "cause chain must end at R0's update to P";
  }
}

TEST(Guard, SummaryMentionsActions) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  Guard guard(*scenario.network, paper_policies(scenario));
  scenario.misconfigure_r2_lp10();
  auto report = guard.run();
  std::string summary = report.summary();
  EXPECT_NE(summary.find("reverted"), std::string::npos);
  EXPECT_NE(summary.find("incident"), std::string::npos);
}

TEST(Guard, HbgAccessorProducesGraph) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  Guard guard(*scenario.network, paper_policies(scenario));
  auto hbg = guard.current_hbg();
  EXPECT_GT(hbg.vertex_count(), 0u);
  EXPECT_GT(hbg.edge_count(), 0u);
}

}  // namespace
}  // namespace hbguard
