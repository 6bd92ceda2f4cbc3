#include "hbguard/verify/forwarding_graph.hpp"

#include <algorithm>
#include <sstream>

namespace hbguard {

std::string_view to_string(ForwardOutcome outcome) {
  switch (outcome) {
    case ForwardOutcome::kDelivered: return "delivered";
    case ForwardOutcome::kExternal: return "external";
    case ForwardOutcome::kDropped: return "dropped";
    case ForwardOutcome::kBlackhole: return "blackhole";
    case ForwardOutcome::kLoop: return "loop";
    case ForwardOutcome::kDeadUplink: return "dead-uplink";
  }
  return "?";
}

std::string ForwardTrace::describe() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) out << " -> ";
    out << "R" << path[i];
  }
  out << " [" << to_string(outcome);
  if (outcome == ForwardOutcome::kExternal) out << " via " << exit_session;
  out << "]";
  return out.str();
}

ForwardTrace trace_forwarding(const DataPlaneSnapshot& snapshot, RouterId source,
                              IpAddress destination) {
  ForwardTrace trace;
  RouterId current = source;
  while (true) {
    // A path is a few hops long: searching it beats a visited set.
    bool revisit = std::find(trace.path.begin(), trace.path.end(), current) != trace.path.end();
    trace.path.push_back(current);
    if (revisit) {
      trace.outcome = ForwardOutcome::kLoop;
      return trace;
    }
    const FibEntry* entry = snapshot.lookup(current, destination);
    if (entry == nullptr) {
      trace.outcome = ForwardOutcome::kBlackhole;
      return trace;
    }
    switch (entry->action) {
      case FibEntry::Action::kLocal:
        trace.outcome = ForwardOutcome::kDelivered;
        trace.exit_router = current;
        return trace;
      case FibEntry::Action::kDrop:
        trace.outcome = ForwardOutcome::kDropped;
        return trace;
      case FibEntry::Action::kExternal:
        trace.exit_router = current;
        trace.exit_session = entry->external_session;
        trace.outcome = snapshot.uplink_up(current, entry->external_session)
                            ? ForwardOutcome::kExternal
                            : ForwardOutcome::kDeadUplink;
        return trace;
      case FibEntry::Action::kForward:
        current = entry->next_hop;
        if (!snapshot.routers.contains(current)) {
          trace.path.push_back(current);
          trace.outcome = ForwardOutcome::kBlackhole;
          return trace;
        }
        break;
    }
  }
}

}  // namespace hbguard
