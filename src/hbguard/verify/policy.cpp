#include "hbguard/verify/policy.hpp"

namespace hbguard {

namespace {
/// The trace's source has no route for the destination at all.
bool no_route_at_source(const ForwardTrace& trace) {
  return trace.outcome == ForwardOutcome::kBlackhole && trace.path.size() == 1;
}
}  // namespace

std::string Violation::describe() const {
  std::string out = policy + ": " + prefix.to_string();
  if (router != kInvalidRouter) out += " at R" + std::to_string(router);
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

void LoopFreedomPolicy::check(const DataPlaneSnapshot& snapshot,
                              std::vector<Violation>& out) const {
  IpAddress destination = representative(prefix_);
  for (const auto& [router, view] : snapshot.routers) {
    ForwardTrace trace = trace_forwarding(snapshot, router, destination);
    if (trace.outcome == ForwardOutcome::kLoop) {
      out.push_back({name(), prefix_, router, trace.describe()});
    }
  }
}

void BlackholeFreedomPolicy::check(const DataPlaneSnapshot& snapshot,
                                   std::vector<Violation>& out) const {
  IpAddress destination = representative(prefix_);
  for (const auto& [router, view] : snapshot.routers) {
    ForwardTrace trace = trace_forwarding(snapshot, router, destination);
    if (no_route_at_source(trace)) continue;  // not a blackhole
    if (trace.outcome == ForwardOutcome::kBlackhole ||
        trace.outcome == ForwardOutcome::kDropped ||
        trace.outcome == ForwardOutcome::kDeadUplink) {
      out.push_back({name(), prefix_, router, trace.describe()});
    }
  }
}

void ReachabilityPolicy::check(const DataPlaneSnapshot& snapshot,
                               std::vector<Violation>& out) const {
  ForwardTrace trace = trace_forwarding(snapshot, source_, representative(prefix_));
  if (!trace.reaches_exit()) {
    out.push_back({name(), prefix_, source_, trace.describe()});
  }
}

void WaypointPolicy::check(const DataPlaneSnapshot& snapshot, std::vector<Violation>& out) const {
  IpAddress destination = representative(prefix_);
  for (const auto& [router, view] : snapshot.routers) {
    ForwardTrace trace = trace_forwarding(snapshot, router, destination);
    if (!trace.reaches_exit()) continue;
    // Traffic originating at the exit itself has no opportunity (or need)
    // to detour through the waypoint.
    if (trace.exit_router == router && trace.path.size() == 1) continue;
    bool through = false;
    for (RouterId hop : trace.path) {
      if (hop == waypoint_) through = true;
    }
    if (!through) {
      out.push_back({name(), prefix_, router, "bypasses waypoint: " + trace.describe()});
    }
  }
}

void PreferredExitPolicy::check(const DataPlaneSnapshot& snapshot,
                                std::vector<Violation>& out) const {
  IpAddress destination = representative(prefix_);

  // An exit is *available* when its uplink is up and currently offers a
  // route for the prefix (known from the captured eBGP advertisements on
  // that session — control-plane *inputs*, independent of the FIBs under
  // verification). The policy binds traffic to the preferred exit only
  // while it is available (Fig. 1a: R2's uplink is up but has learned no
  // route — using R1 is correct; Fig. 2: the route is still offered, so
  // exiting via R1 is the violation).
  auto available = [&](RouterId router, const std::string& session) {
    return snapshot.uplink_offers(router, session, prefix_);
  };

  RouterId want_router;
  const std::string* want_session;
  if (available(preferred_router_, preferred_session_)) {
    want_router = preferred_router_;
    want_session = &preferred_session_;
  } else if (available(backup_router_, backup_session_)) {
    want_router = backup_router_;
    want_session = &backup_session_;
  } else {
    return;  // neither exit usable: reachability policies own this case
  }

  for (const auto& [router, view] : snapshot.routers) {
    ForwardTrace trace = trace_forwarding(snapshot, router, destination);
    if (no_route_at_source(trace)) continue;
    if (trace.outcome != ForwardOutcome::kExternal || trace.exit_router != want_router ||
        trace.exit_session != *want_session) {
      out.push_back({name(), prefix_, router,
                     "expected exit R" + std::to_string(want_router) + " via " + *want_session +
                         ", got " + trace.describe()});
    }
  }
}

}  // namespace hbguard
