// Shared test fixtures: scenario policy sets, FIB entry makers, data-plane
// digests, and the seeded churn-network guarded-run harness.
//
// Everything here is deterministic for a given seed — the differential
// harnesses (test_fault_injection.cpp, test_traffic_weighted.cpp) rely on
// replaying the *identical* network, churn and fault plan in every
// configuration they compare.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "hbguard/core/guard.hpp"
#include "hbguard/fault/injector.hpp"
#include "hbguard/fault/plan.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/naive.hpp"

namespace hbguard {

/// The three policies of the paper's Fig. 2 walkthrough, bound to a
/// PaperScenario's routers and prefix.
inline PolicyList paper_policies(const PaperScenario& scenario) {
  PolicyList policies;
  policies.push_back(std::make_shared<LoopFreedomPolicy>(scenario.prefix_p));
  policies.push_back(std::make_shared<BlackholeFreedomPolicy>(scenario.prefix_p));
  policies.push_back(std::make_shared<PreferredExitPolicy>(
      scenario.prefix_p, scenario.r2, PaperScenario::kUplink2, scenario.r1,
      PaperScenario::kUplink1));
  return policies;
}

/// FIB entry forwarding `prefix` to a neighbouring router.
inline FibEntry forward_entry(const char* prefix, RouterId next_hop) {
  FibEntry e;
  e.prefix = *Prefix::parse(prefix);
  e.action = FibEntry::Action::kForward;
  e.next_hop = next_hop;
  return e;
}

/// FIB entry exiting `prefix` through an external session.
inline FibEntry external_entry(const char* prefix, const char* session) {
  FibEntry e;
  e.prefix = *Prefix::parse(prefix);
  e.action = FibEntry::Action::kExternal;
  e.external_session = session;
  return e;
}

/// Live data-plane content, excluding as_of (compared runs end at slightly
/// different virtual times because channel deliveries are events).
inline std::string content_digest(const DataPlaneSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [router, view] : snapshot.routers) {
    out << "R" << router << "\n";
    for (const FibEntry& entry : view.entries) out << "  " << entry.describe() << "\n";
    for (const std::string& session : view.failed_uplinks) out << "  down:" << session << "\n";
  }
  return out.str();
}

/// One ReachabilityPolicy per non-zero router's loopback. Loopbacks are
/// originated into OSPF and ignore route churn, so the only legitimate
/// violations are the ones control-plane faults cause.
inline PolicyList loopback_policies(std::size_t router_count) {
  PolicyList policies;
  for (RouterId r = 1; r < router_count; ++r) {
    policies.push_back(std::make_shared<ReachabilityPolicy>(0, loopback_prefix(r)));
  }
  return policies;
}

struct GuardedRun {
  GuardReport report;
  std::string final_data_plane;
  bool degraded_at_end = false;
  std::string health_states;  // per-router, for failure diagnostics
};

/// Everything run_guarded varies beyond the fault plan itself.
struct GuardedRunOptions {
  bool faulty = false;        ///< install delivery channel + play capture faults
  unsigned threads = 1;       ///< guard worker threads
  std::uint64_t seed = 13;    ///< topology/churn seed
  std::size_t routers = 8;
  std::size_t churn_events = 40;
  /// Last-chance hook over the assembled GuardOptions (traffic scheduling,
  /// incremental toggles, ...) before the Guard is constructed.
  std::function<void(GuardOptions&)> customize;
  /// Post-run hook over the finished Guard, for state GuardedRun does not
  /// carry (scheduler stats, the early-block model, ...).
  std::function<void(const Guard&)> inspect;
};

/// One guarded run over the same seeded topology + churn. `faulty` installs
/// the delivery channel + stream health and plays the full plan; otherwise
/// the run is the oracle: identical control-plane faults, pristine capture.
inline GuardedRun run_guarded(const FaultPlan& plan, const GuardedRunOptions& run_options) {
  Rng topo_rng(run_options.seed);
  NetworkOptions options;
  options.seed = run_options.seed;
  auto generated =
      make_ibgp_network(make_waxman_topology(run_options.routers, topo_rng), 2, options);
  Network& net = *generated.network;
  net.run_to_convergence();

  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.event_count = run_options.churn_events;
  churn_options.config_change_probability = 0;
  churn_options.seed = run_options.seed + 1;
  ChurnWorkload churn(generated, churn_options);

  FaultInjectorOptions injector_options;
  // Stretch the degraded window past one scan interval so every outage is
  // observed by at least one scan.
  injector_options.resync_delay_us = 120'000;
  if (!run_options.faulty) {
    injector_options.install_channel = false;
    injector_options.enable_health = false;
  }
  FaultInjector injector(net, run_options.faulty ? plan : plan.control_only(),
                         injector_options);
  injector.arm();

  GuardOptions guard_options;
  guard_options.repair = RepairMode::kReport;
  guard_options.num_threads = run_options.threads;
  if (run_options.customize) run_options.customize(guard_options);
  Guard guard(net, loopback_policies(net.router_count()), guard_options);

  // Scan through the fault window, then drain and let grace windows expire.
  for (int i = 0; i < 34; ++i) {
    net.run_for(100'000);
    guard.scan();
  }
  net.run_to_convergence();
  for (int i = 0; i < 3; ++i) {
    net.run_for(200'000);
    guard.scan();
  }

  if (run_options.inspect) run_options.inspect(guard);

  GuardedRun out;
  out.report = guard.report();
  out.final_data_plane = content_digest(take_instant_snapshot(net));
  const StreamHealthTracker* health = net.capture().health();
  out.degraded_at_end = health != nullptr && health->any_degraded();
  if (health != nullptr) {
    std::ostringstream states;
    for (RouterId r = 0; r < net.router_count(); ++r) {
      states << "R" << r << "=" << to_string(health->state(r)) << " ";
    }
    out.health_states = states.str();
  }
  return out;
}

/// Back-compat shim for call sites predating GuardedRunOptions.
inline GuardedRun run_guarded(const FaultPlan& plan, bool faulty, unsigned threads,
                              std::uint64_t seed, std::size_t routers = 8,
                              std::size_t churn_events = 40) {
  GuardedRunOptions options;
  options.faulty = faulty;
  options.threads = threads;
  options.seed = seed;
  options.routers = routers;
  options.churn_events = churn_events;
  return run_guarded(plan, options);
}

}  // namespace hbguard
