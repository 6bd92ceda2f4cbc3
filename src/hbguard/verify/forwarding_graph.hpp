// Per-destination forwarding analysis over a data-plane snapshot.
//
// For a destination address, tracing from a source router follows each
// router's longest-prefix-match next hop until the packet is delivered
// locally, exits the domain via an eBGP uplink, is dropped (null route or
// no matching entry), or revisits a router (forwarding loop).
#pragma once

#include <string>
#include <vector>

#include "hbguard/snapshot/snapshot.hpp"

namespace hbguard {

enum class ForwardOutcome : std::uint8_t {
  kDelivered,   // local delivery at some router
  kExternal,    // left the domain via an uplink
  kDropped,     // explicit null route
  kBlackhole,   // no matching FIB entry at some router
  kLoop,        // revisited a router
  kDeadUplink,  // exited via an uplink the snapshot says is down
};

std::string_view to_string(ForwardOutcome outcome);

struct ForwardTrace {
  std::vector<RouterId> path;  // routers visited, source first
  ForwardOutcome outcome = ForwardOutcome::kBlackhole;
  RouterId exit_router = kInvalidRouter;  // kDelivered/kExternal: where
  std::string exit_session;               // kExternal: which uplink

  bool reaches_exit() const {
    return outcome == ForwardOutcome::kDelivered || outcome == ForwardOutcome::kExternal;
  }
  std::string describe() const;
};

/// Trace a packet for `destination` injected at `source`. A source with no
/// route for it yields a one-hop kBlackhole trace.
ForwardTrace trace_forwarding(const DataPlaneSnapshot& snapshot, RouterId source,
                              IpAddress destination);

/// A representative address inside a prefix (its network address).
inline IpAddress representative(const Prefix& prefix) {
  return prefix.address();
}

}  // namespace hbguard
