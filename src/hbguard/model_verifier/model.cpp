#include "hbguard/model_verifier/model.hpp"

#include <map>
#include <queue>
#include <set>

#include "hbguard/config/policy.hpp"
#include "hbguard/verify/forwarding_graph.hpp"

namespace hbguard {

namespace {

struct ModelRoute {
  Prefix prefix;
  std::uint32_t local_pref = 100;
  std::size_t as_path_len = 0;
  RouterId exit_router = kInvalidRouter;
  std::string exit_session;
};

/// Simplified decision: LP desc, AS-path length asc, exit router id asc.
bool better(const ModelRoute& a, const ModelRoute& b) {
  if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
  if (a.as_path_len != b.as_path_len) return a.as_path_len < b.as_path_len;
  return a.exit_router < b.exit_router;
}

/// IGP next hop from `from` toward `to` over up links (uniform costs in the
/// model — cost overrides are a vendor detail it ignores).
std::map<RouterId, RouterId> first_hops(const Topology& topology, RouterId from) {
  std::map<RouterId, RouterId> hop;
  std::queue<RouterId> frontier;
  std::set<RouterId> seen{from};
  frontier.push(from);
  while (!frontier.empty()) {
    RouterId current = frontier.front();
    frontier.pop();
    for (LinkId lid : topology.links_of(current)) {
      const Link& link = topology.link(lid);
      if (!link.up) continue;
      RouterId next = link.other(current);
      if (!seen.insert(next).second) continue;
      hop[next] = current == from ? next : hop[current];
      frontier.push(next);
    }
  }
  return hop;
}

}  // namespace

DataPlaneSnapshot ControlPlaneModel::predict(
    const Topology& topology, const ConfigStore& configs,
    const std::vector<AssumedExternalRoute>& external_routes) const {
  // Per prefix: the model's view of each border router's candidate, after
  // applying the configured import policy (the model does understand
  // route-maps — local-pref is the core of most policies).
  std::map<Prefix, std::vector<ModelRoute>> candidates;
  for (const AssumedExternalRoute& route : external_routes) {
    const RouterConfig& config = configs.current(route.router);
    const BgpSessionConfig* session = config.bgp.find_session(route.session);
    if (session == nullptr || !session->enabled) continue;

    ModelRoute model_route;
    model_route.prefix = route.prefix;
    model_route.as_path_len = route.as_path.size();
    model_route.exit_router = route.router;
    model_route.exit_session = route.session;
    model_route.local_pref = config.bgp.default_local_pref;

    if (!session->import_policy.empty()) {
      const RouteMap* map = config.find_route_map(session->import_policy);
      if (map != nullptr) {
        PolicyRouteView view{route.prefix, model_route.local_pref, route.med,
                             route.as_path, route.session};
        if (!map->apply(view)) continue;  // denied
        model_route.local_pref = view.local_pref;
        model_route.as_path_len = view.as_path.size();
      }
    }
    candidates[route.prefix].push_back(std::move(model_route));
  }

  // Network-wide best per prefix (full-mesh iBGP: every router learns every
  // border router's candidate and applies the same simplified decision).
  DataPlaneSnapshot snapshot;
  for (const RouterInfo& info : topology.routers()) {
    snapshot.routers[info.id];  // ensure present even if empty
  }

  for (const auto& [prefix, routes] : candidates) {
    if (routes.empty()) continue;
    const ModelRoute* best = &routes.front();
    for (const ModelRoute& route : routes) {
      if (better(route, *best)) best = &route;
    }
    // Install: exit router sends out its uplink; everyone else forwards
    // along IGP shortest paths toward the exit.
    for (const RouterInfo& info : topology.routers()) {
      FibEntry entry;
      entry.prefix = prefix;
      entry.source = Protocol::kEbgp;
      if (info.id == best->exit_router) {
        entry.action = FibEntry::Action::kExternal;
        entry.external_session = best->exit_session;
      } else {
        auto hops = first_hops(topology, info.id);
        auto it = hops.find(best->exit_router);
        if (it == hops.end()) continue;  // partitioned: no route predicted
        entry.action = FibEntry::Action::kForward;
        entry.next_hop = it->second;
      }
      snapshot.routers[info.id].entries.install(entry);
    }
  }
  return snapshot;
}

std::size_t count_fib_divergence(const DataPlaneSnapshot& a, const DataPlaneSnapshot& b,
                                 const std::vector<Prefix>& prefixes) {
  std::size_t divergent = 0;
  std::set<RouterId> routers;
  for (const auto& [router, view] : a.routers) routers.insert(router);
  for (const auto& [router, view] : b.routers) routers.insert(router);

  for (const Prefix& prefix : prefixes) {
    IpAddress destination = representative(prefix);
    for (RouterId router : routers) {
      const FibEntry* ea = a.lookup(router, destination);
      const FibEntry* eb = b.lookup(router, destination);
      bool same;
      if (ea == nullptr || eb == nullptr) {
        same = ea == eb;
      } else {
        same = ea->action == eb->action && ea->next_hop == eb->next_hop &&
               ea->external_session == eb->external_session;
      }
      if (!same) ++divergent;
    }
  }
  return divergent;
}

}  // namespace hbguard
