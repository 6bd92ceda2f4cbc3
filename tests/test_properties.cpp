// Property-based sweeps: invariants that must hold across topologies,
// seeds and workloads, exercised via parameterized gtest.
#include <gtest/gtest.h>

#include <map>

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/proto/bgp/decision.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/snapshot/naive.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/verify/forwarding_graph.hpp"
#include "record_index.hpp"

namespace hbguard {
namespace {

// ---------------------------------------------------------------------------
// Network invariants across topology shapes and seeds.

enum class TopoKind { kChain, kRing, kMesh, kRandom, kRouteReflector };

struct NetParam {
  TopoKind kind;
  std::size_t size;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<NetParam>& info) {
  const char* kind = "";
  switch (info.param.kind) {
    case TopoKind::kChain: kind = "chain"; break;
    case TopoKind::kRing: kind = "ring"; break;
    case TopoKind::kMesh: kind = "mesh"; break;
    case TopoKind::kRandom: kind = "random"; break;
    case TopoKind::kRouteReflector: kind = "rr"; break;
  }
  return std::string(kind) + std::to_string(info.param.size) + "_s" +
         std::to_string(info.param.seed);
}

class NetworkInvariants : public ::testing::TestWithParam<NetParam> {
 protected:
  GeneratedNetwork build() {
    const NetParam& p = GetParam();
    NetworkOptions options;
    options.seed = p.seed;
    Rng rng(p.seed);
    switch (p.kind) {
      case TopoKind::kChain:
        return make_ibgp_network(make_chain_topology(p.size), 2, options);
      case TopoKind::kRing:
        return make_ibgp_network(make_ring_topology(p.size), 2, options);
      case TopoKind::kMesh:
        return make_ibgp_network(make_full_mesh_topology(p.size), 2, options);
      case TopoKind::kRandom:
        return make_ibgp_network(make_random_topology(p.size, p.size / 2, rng), 2, options);
      case TopoKind::kRouteReflector:
        return make_route_reflector_network(p.size - 1, 2, options);
    }
    return {};
  }
};

TEST_P(NetworkInvariants, ConvergesAndAllLoopbacksReachable) {
  auto generated = build();
  Network& net = *generated.network;
  std::size_t events = net.run_to_convergence();
  EXPECT_GT(events, 0u);
  ASSERT_TRUE(net.sim().idle());

  auto snapshot = take_instant_snapshot(net);
  for (std::size_t src = 0; src < net.router_count(); ++src) {
    for (std::size_t dst = 0; dst < net.router_count(); ++dst) {
      auto trace = trace_forwarding(snapshot, static_cast<RouterId>(src),
                                    representative(loopback_prefix(static_cast<RouterId>(dst))));
      EXPECT_EQ(trace.outcome, ForwardOutcome::kDelivered)
          << "R" << src << " -> loopback of R" << dst << ": " << trace.describe();
      EXPECT_EQ(trace.exit_router, static_cast<RouterId>(dst));
    }
  }
}

TEST_P(NetworkInvariants, ChurnPreservesCausalOrderAndLoopFreedom) {
  auto generated = build();
  Network& net = *generated.network;
  net.run_to_convergence();

  ChurnOptions churn_options;
  churn_options.seed = GetParam().seed + 41;
  churn_options.event_count = 25;
  churn_options.prefix_count = 4;
  ChurnWorkload churn(generated, churn_options);
  net.run_to_convergence();

  // Causal sanity of the capture stream.
  const auto& records = net.capture().records();
  RecordIndex index(records);
  for (const IoRecord& r : records) {
    for (IoId cause : r.true_causes) {
      ASSERT_LT(cause, r.id);
      const IoRecord* parent = index.find(cause);
      ASSERT_NE(parent, nullptr);
      EXPECT_LE(parent->true_time, r.true_time);
    }
    if (!r.input()) EXPECT_FALSE(r.true_causes.empty()) << r.describe();
  }

  // Steady state has no forwarding loops for any advertised prefix.
  auto snapshot = take_instant_snapshot(net);
  for (std::size_t i = 0; i < churn_options.prefix_count; ++i) {
    for (std::size_t src = 0; src < net.router_count(); ++src) {
      auto trace = trace_forwarding(snapshot, static_cast<RouterId>(src),
                                    representative(churn_prefix(i)));
      EXPECT_NE(trace.outcome, ForwardOutcome::kLoop) << trace.describe();
    }
  }
}

TEST_P(NetworkInvariants, ConsistentSnapshotAtFullHorizonMatchesDataPlane) {
  auto generated = build();
  Network& net = *generated.network;
  net.run_to_convergence();
  ChurnOptions churn_options;
  churn_options.seed = GetParam().seed + 99;
  churn_options.event_count = 15;
  ChurnWorkload churn(generated, churn_options);
  net.run_to_convergence();

  auto records = net.capture().records();
  auto hbg = HbgBuilder::build(records, RuleMatchingInference());
  ConsistencyReport report;
  auto snapshot = IncrementalSnapshotter::build({}, records, hbg, {}, &report);
  auto truth = take_instant_snapshot(net);
  for (const auto& [router, view] : truth.routers) {
    EXPECT_EQ(snapshot.routers.at(router).entries, view.entries) << "router " << router;
  }
  EXPECT_EQ(report.total_rewound(), 0u) << "complete logs need no rewind";
  EXPECT_TRUE(report.in_flux.empty()) << "nothing is mid-propagation after convergence";
}

TEST_P(NetworkInvariants, ReplayIsDeterministic) {
  auto run = [this] {
    auto generated = build();
    generated.network->run_to_convergence();
    ChurnOptions churn_options;
    churn_options.seed = GetParam().seed + 7;
    churn_options.event_count = 10;
    ChurnWorkload churn(generated, churn_options);
    generated.network->run_to_convergence();
    std::vector<std::string> trace;
    for (const IoRecord& r : generated.network->capture().records()) {
      trace.push_back(r.describe());
    }
    return trace;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, NetworkInvariants,
    ::testing::Values(NetParam{TopoKind::kChain, 4, 1}, NetParam{TopoKind::kChain, 8, 2},
                      NetParam{TopoKind::kRing, 5, 3}, NetParam{TopoKind::kRing, 9, 4},
                      NetParam{TopoKind::kMesh, 5, 5}, NetParam{TopoKind::kRandom, 8, 6},
                      NetParam{TopoKind::kRandom, 14, 7},
                      NetParam{TopoKind::kRouteReflector, 6, 8},
                      NetParam{TopoKind::kRouteReflector, 10, 9}),
    param_name);

// ---------------------------------------------------------------------------
// Longest-prefix-match trie vs a linear reference implementation.

class TrieProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieProperty, MatchesLinearReference) {
  Rng rng(GetParam());
  PrefixTrie<int> trie;
  std::map<Prefix, int> reference;

  for (int op = 0; op < 600; ++op) {
    auto length = static_cast<std::uint8_t>(rng.uniform_int(0, 32));
    Prefix prefix(IpAddress(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL))),
                  length);
    if (rng.chance(0.3) && !reference.empty()) {
      // Erase a random existing prefix half the time, a random one otherwise.
      if (rng.chance(0.5)) {
        auto it = reference.begin();
        std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(reference.size()) - 1));
        prefix = it->first;
      }
      EXPECT_EQ(trie.erase(prefix), reference.erase(prefix) > 0);
    } else {
      int value = op;
      bool was_new = !reference.contains(prefix);
      EXPECT_EQ(trie.insert(prefix, value), was_new);
      reference[prefix] = value;
    }
    EXPECT_EQ(trie.size(), reference.size());
  }

  // Random lookups agree with the linear longest-match scan.
  for (int probe = 0; probe < 300; ++probe) {
    IpAddress ip(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL)));
    const int* got = trie.longest_match(ip);
    const std::pair<const Prefix, int>* best = nullptr;
    for (const auto& entry : reference) {
      if (entry.first.contains(ip) &&
          (best == nullptr || entry.first.length() > best->first.length())) {
        best = &entry;
      }
    }
    if (best == nullptr) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr) << ip.to_string();
      EXPECT_EQ(*got, best->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieProperty, ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// BGP decision process properties.

class DecisionProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<BgpRoute> random_candidates(Rng& rng, std::size_t count) {
    std::vector<BgpRoute> candidates;
    for (std::size_t i = 0; i < count; ++i) {
      BgpRoute route;
      route.prefix = *Prefix::parse("203.0.113.0/24");
      route.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform_int(50, 52));
      route.attrs.as_path.assign(static_cast<std::size_t>(rng.uniform_int(1, 3)), 64500);
      route.attrs.med = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      route.attrs.origin = static_cast<BgpOrigin>(rng.uniform_int(0, 2));
      route.ebgp = rng.chance(0.5);
      route.peer = static_cast<RouterId>(i + 1);  // distinct peers
      route.peer_as = 64500;
      route.attrs.next_hop =
          route.ebgp ? BgpNextHop::via_external("up") : BgpNextHop::internal(route.peer);
      route.arrival_seq = i;
      candidates.push_back(std::move(route));
    }
    return candidates;
  }
};

TEST_P(DecisionProperty, WinnerInvariantUnderPermutation) {
  Rng rng(GetParam());
  VendorQuirks quirks;
  quirks.prefer_oldest_route = false;  // §8: deterministic configuration
  BestPathSelector selector(quirks, [](RouterId) { return std::uint32_t{1}; });

  for (int round = 0; round < 50; ++round) {
    auto candidates = random_candidates(rng, static_cast<std::size_t>(rng.uniform_int(1, 6)));
    auto result = selector.select(candidates);
    ASSERT_TRUE(result.best.has_value());
    RouterId winner_peer = candidates[*result.best].peer;

    for (int shuffle = 0; shuffle < 5; ++shuffle) {
      rng.shuffle(candidates);
      auto again = selector.select(candidates);
      ASSERT_TRUE(again.best.has_value());
      EXPECT_EQ(candidates[*again.best].peer, winner_peer)
          << "winner must not depend on candidate order";
    }
  }
}

TEST_P(DecisionProperty, WinnerIsUndominated) {
  Rng rng(GetParam() + 1);
  VendorQuirks quirks;
  quirks.prefer_oldest_route = false;
  BestPathSelector selector(quirks, [](RouterId) { return std::uint32_t{1}; });

  for (int round = 0; round < 50; ++round) {
    auto candidates = random_candidates(rng, static_cast<std::size_t>(rng.uniform_int(2, 6)));
    auto result = selector.select(candidates);
    ASSERT_TRUE(result.best.has_value());
    const BgpRoute& winner = candidates[*result.best];
    for (const BgpRoute& other : candidates) {
      // Nobody may beat the winner on the first differentiating criterion.
      EXPECT_LE(other.attrs.weight, winner.attrs.weight);
      if (other.attrs.weight == winner.attrs.weight) {
        EXPECT_LE(other.attrs.local_pref, winner.attrs.local_pref);
        if (other.attrs.local_pref == winner.attrs.local_pref) {
          EXPECT_GE(other.attrs.as_path.size(), winner.attrs.as_path.size());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionProperty, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// FIB replay from captured records reproduces each router's data plane.

class ReplayProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayProperty, FibUpdatesReplayToFinalState) {
  NetworkOptions options;
  options.seed = GetParam();
  Rng rng(GetParam());
  auto generated = make_ibgp_network(make_random_topology(7, 3, rng), 2, options);
  Network& net = *generated.network;
  net.run_to_convergence();
  ChurnOptions churn_options;
  churn_options.seed = GetParam() + 13;
  churn_options.event_count = 20;
  ChurnWorkload churn(generated, churn_options);
  net.run_to_convergence();

  std::map<RouterId, Fib> replayed;
  for (const IoRecord& r : net.capture().records()) {
    if (r.kind != IoKind::kFibUpdate || r.fib_blocked) continue;
    if (r.withdraw) {
      if (r.prefix) replayed[r.router].remove(*r.prefix);
    } else if (r.fib_entry) {
      replayed[r.router].install(*r.fib_entry);
    }
  }
  for (std::size_t i = 0; i < net.router_count(); ++i) {
    auto id = static_cast<RouterId>(i);
    EXPECT_EQ(replayed[id].entries(), net.router(id).data_fib().entries()) << "router " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayProperty, ::testing::Values(61, 62, 63, 64, 65, 66));

}  // namespace
}  // namespace hbguard
