#include "hbguard/dverify/distributed.hpp"

#include <algorithm>
#include <set>

namespace hbguard {

DistributedVerifier::DistributedVerifier(const Topology& topology, PolicyList policies,
                                         VerifierOptions options)
    : topology_(topology), verifier_(policies, options), policies_(std::move(policies)) {}

std::vector<Prefix> DistributedVerifier::policy_prefixes() const {
  std::set<Prefix> unique;
  for (const auto& policy : policies_) {
    for (const Prefix& p : policy->prefixes()) unique.insert(p);
  }
  return {unique.begin(), unique.end()};
}

DistributedVerifier::PrefixCost DistributedVerifier::prefix_cost(
    const DataPlaneSnapshot& snapshot, const Prefix& prefix) const {
  // Per destination, a verification token starts at every router, each hop
  // applies that router's transfer function (one lookup) and ships the
  // partial result across the link.
  PrefixCost partial;
  IpAddress destination = representative(prefix);
  for (const auto& [source, view] : snapshot.routers) {
    ForwardTrace trace = trace_forwarding(snapshot, source, destination);
    SimTime path_latency = 0;
    for (std::size_t i = 0; i < trace.path.size(); ++i) {
      RouterId hop = trace.path[i];
      ++partial.node_work[hop];
      ++partial.cost.total_work;
      if (i + 1 < trace.path.size()) {
        ++partial.cost.messages;
        ++partial.cost.payload_entries;  // one partial result forwarded
        auto link = topology_.link_between(hop, trace.path[i + 1]);
        path_latency += link.has_value() ? topology_.link(*link).delay_us : 1000;
      }
    }
    partial.cost.latency_us = std::max(partial.cost.latency_us, path_latency);
  }
  return partial;
}

VerifyResult DistributedVerifier::verify(const DataPlaneSnapshot& snapshot,
                                         VerifyCost* cost) const {
  VerifyResult result = verifier_.verify(snapshot);
  if (cost == nullptr) return result;

  // Cost the distributed execution, sharding the per-router transfer-
  // function evaluation per prefix across the verifier's pool. Partial
  // costs merge in prefix order — sums and maxes, so the totals equal the
  // serial evaluation's exactly.
  std::vector<Prefix> prefixes = policy_prefixes();
  std::vector<PrefixCost> partials(prefixes.size());
  std::shared_ptr<ThreadPool> pool = verifier_.thread_pool();
  if (pool != nullptr && prefixes.size() > 1) {
    pool->parallel_for(prefixes.size(), [&](std::size_t i) {
      partials[i] = prefix_cost(snapshot, prefixes[i]);
    });
  } else {
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      partials[i] = prefix_cost(snapshot, prefixes[i]);
    }
  }

  *cost = VerifyCost{};
  std::map<RouterId, std::size_t> node_work;
  for (const PrefixCost& partial : partials) {
    cost->messages += partial.cost.messages;
    cost->payload_entries += partial.cost.payload_entries;
    cost->total_work += partial.cost.total_work;
    cost->latency_us = std::max(cost->latency_us, partial.cost.latency_us);
    for (const auto& [router, work] : partial.node_work) node_work[router] += work;
  }
  for (const auto& [router, work] : node_work) {
    cost->max_node_work = std::max(cost->max_node_work, work);
  }
  return result;
}

VerifyCost DistributedVerifier::centralized_cost(const DataPlaneSnapshot& snapshot) const {
  VerifyCost cost;
  // Every router uploads its entire FIB view to the collector.
  SimTime max_upload_delay = 0;
  for (const auto& [router, view] : snapshot.routers) {
    ++cost.messages;
    cost.payload_entries += view.entries.size();
    // Latency: one hop to the collector, approximated by the router's
    // cheapest attached link (the collector sits inside the network).
    SimTime best = 1000;
    for (LinkId lid : topology_.links_of(router)) {
      best = std::min<SimTime>(best == 1000 ? topology_.link(lid).delay_us : best,
                               topology_.link(lid).delay_us);
    }
    max_upload_delay = std::max(max_upload_delay, best);
  }
  cost.latency_us = max_upload_delay;

  // The collector performs every lookup itself.
  for (const Prefix& prefix : policy_prefixes()) {
    IpAddress destination = representative(prefix);
    for (const auto& [source, view] : snapshot.routers) {
      ForwardTrace trace = trace_forwarding(snapshot, source, destination);
      cost.total_work += trace.path.size();
    }
  }
  cost.max_node_work = cost.total_work;  // all on one node
  return cost;
}

}  // namespace hbguard
