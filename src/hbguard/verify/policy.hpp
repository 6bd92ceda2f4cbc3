// Verification policies.
//
// A policy checks one operator intent against a data-plane snapshot and
// reports violations. The built-in set covers the properties the paper
// references: loop freedom, blackhole freedom ("traffic is never silently
// lost"), reachability, waypoint traversal ("traffic should never bypass a
// firewall", §5) and the running example's preferred-exit policy ("R2 is
// the preferred exit point when its uplink is up; otherwise R1", §2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hbguard/verify/forwarding_graph.hpp"

namespace hbguard {

struct Violation {
  std::string policy;
  Prefix prefix;
  RouterId router = kInvalidRouter;  // where the offending behaviour shows
  std::string detail;

  std::string describe() const;
};

/// A verdict may depend only on:
///   * the snapshot's router set;
///   * lookups and traces toward the policy's destinations (the
///     representatives of prefixes());
///   * uplink up/down state;
///   * the external offers covering the policy's prefixes.
/// The verifier relies on this to reuse a verdict across scans: router-set
/// changes and uplink flips make a SnapshotDelta full, and any other change
/// to these inputs puts a prefix containing one of the destinations into
/// the delta's changed_prefixes.
///
/// Every violation a policy reports names one of its prefixes() as
/// `Violation::prefix`. The Guard relies on this to find a violation's
/// latest FIB update: it indexes updates to the policies' prefixes only.
class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string name() const = 0;
  /// Append violations found in `snapshot` to `out`, tracing forwarding
  /// on the fly; each names one of prefixes().
  virtual void check(const DataPlaneSnapshot& snapshot, std::vector<Violation>& out) const = 0;
  /// Destination prefixes this policy reasons about (drives verdict reuse
  /// and the distributed verifier's work partitioning).
  virtual std::vector<Prefix> prefixes() const = 0;
};

/// No forwarding loop for the prefix, from any source.
class LoopFreedomPolicy : public Policy {
 public:
  explicit LoopFreedomPolicy(Prefix prefix) : prefix_(prefix) {}
  std::string name() const override { return "loop-freedom(" + prefix_.to_string() + ")"; }
  void check(const DataPlaneSnapshot& snapshot, std::vector<Violation>& out) const override;
  std::vector<Prefix> prefixes() const override { return {prefix_}; }

 private:
  Prefix prefix_;
};

/// Any router holding a route for the prefix must be able to deliver it
/// (no blackholes, drops, or dead uplinks downstream).
class BlackholeFreedomPolicy : public Policy {
 public:
  explicit BlackholeFreedomPolicy(Prefix prefix) : prefix_(prefix) {}
  std::string name() const override { return "blackhole-freedom(" + prefix_.to_string() + ")"; }
  void check(const DataPlaneSnapshot& snapshot, std::vector<Violation>& out) const override;
  std::vector<Prefix> prefixes() const override { return {prefix_}; }

 private:
  Prefix prefix_;
};

/// Traffic from `source` for the prefix must reach an exit.
class ReachabilityPolicy : public Policy {
 public:
  ReachabilityPolicy(RouterId source, Prefix prefix) : source_(source), prefix_(prefix) {}
  std::string name() const override {
    return "reachability(R" + std::to_string(source_) + "," + prefix_.to_string() + ")";
  }
  void check(const DataPlaneSnapshot& snapshot, std::vector<Violation>& out) const override;
  std::vector<Prefix> prefixes() const override { return {prefix_}; }

 private:
  RouterId source_;
  Prefix prefix_;
};

/// All delivered traffic for the prefix must traverse `waypoint`.
class WaypointPolicy : public Policy {
 public:
  WaypointPolicy(Prefix prefix, RouterId waypoint) : prefix_(prefix), waypoint_(waypoint) {}
  std::string name() const override {
    return "waypoint(" + prefix_.to_string() + ",R" + std::to_string(waypoint_) + ")";
  }
  void check(const DataPlaneSnapshot& snapshot, std::vector<Violation>& out) const override;
  std::vector<Prefix> prefixes() const override { return {prefix_}; }

 private:
  Prefix prefix_;
  RouterId waypoint_;
};

/// The paper's running policy: traffic for the prefix exits via
/// (preferred_router, preferred_session) whenever that uplink is up,
/// otherwise via (backup_router, backup_session).
class PreferredExitPolicy : public Policy {
 public:
  PreferredExitPolicy(Prefix prefix, RouterId preferred_router, std::string preferred_session,
                      RouterId backup_router, std::string backup_session)
      : prefix_(prefix),
        preferred_router_(preferred_router),
        preferred_session_(std::move(preferred_session)),
        backup_router_(backup_router),
        backup_session_(std::move(backup_session)) {}
  std::string name() const override { return "preferred-exit(" + prefix_.to_string() + ")"; }
  void check(const DataPlaneSnapshot& snapshot, std::vector<Violation>& out) const override;
  std::vector<Prefix> prefixes() const override { return {prefix_}; }

 private:
  /// Routers that have no route at all for the prefix do not violate this
  /// policy (the route may simply be withdrawn everywhere).
  Prefix prefix_;
  RouterId preferred_router_;
  std::string preferred_session_;
  RouterId backup_router_;
  std::string backup_session_;
};

using PolicyList = std::vector<std::shared_ptr<Policy>>;

}  // namespace hbguard
