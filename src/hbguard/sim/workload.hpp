// Topology generators and churn workloads for the scaling/ablation benches.
//
// The paper's feasibility study uses a 3-router network; the claims in §4-§6
// (inference accuracy, snapshot consistency, HBG cost) need bigger, busier
// networks. These helpers build random-but-reproducible multi-router
// networks with several external uplinks and drive them with route churn
// (advertise/withdraw flaps) and configuration churn (local-pref changes) —
// the input mix real enterprise control planes see.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hbguard/capture/io_record.hpp"
#include "hbguard/sim/network.hpp"
#include "hbguard/util/rng.hpp"

namespace hbguard {

// ---- Topology generators ----
Topology make_chain_topology(std::size_t n, AsNumber as_number = 65000);
Topology make_ring_topology(std::size_t n, AsNumber as_number = 65000);
Topology make_full_mesh_topology(std::size_t n, AsNumber as_number = 65000);
/// Random connected graph: a spanning tree plus `extra_links` random links.
Topology make_random_topology(std::size_t n, std::size_t extra_links, Rng& rng,
                              AsNumber as_number = 65000);
/// k-ary fat-tree (Al-Fares et al.): (k/2)^2 core routers plus k pods of k/2
/// aggregation and k/2 edge routers each. Edge<->aggregation links form a
/// full bipartite graph inside each pod; aggregation router j of every pod
/// connects to cores [j*(k/2), (j+1)*(k/2)). `k` must be even and >= 2.
/// Total routers: k^2*5/4 (e.g. k=4 -> 20).
Topology make_fattree_topology(std::size_t k, AsNumber as_number = 65000);
/// Waxman random graph: n points placed uniformly in the unit square, each
/// pair linked with probability alpha * exp(-d / (beta * sqrt(2))). A random
/// spanning tree guarantees connectivity; link delays are proportional to
/// Euclidean distance. Deterministic for a given rng state.
Topology make_waxman_topology(std::size_t n, Rng& rng, double alpha = 0.6,
                              double beta = 0.25, AsNumber as_number = 65000);

/// A started iBGP-over-OSPF network with `uplink_count` eBGP uplinks placed
/// on the first routers (sessions "uplink0", "uplink1", ... with local-pref
/// 100+10*i so uplinks are strictly ordered by preference).
struct UplinkInfo {
  RouterId router;
  std::string session;
  AsNumber peer_as;
};

struct GeneratedNetwork {
  std::unique_ptr<Network> network;
  std::vector<UplinkInfo> uplinks;
};

GeneratedNetwork make_ibgp_network(Topology topology, std::size_t uplink_count,
                                   NetworkOptions options = {});

/// A hub-and-spoke network using RFC 4456 route reflection instead of an
/// iBGP full mesh: router 0 is the reflector (hub of a star topology);
/// every spoke peers only with it. The first `uplink_count` spokes carry
/// external uplinks ("uplink0", "uplink1", ..., local-pref 100+10*i).
GeneratedNetwork make_route_reflector_network(std::size_t spokes, std::size_t uplink_count,
                                              NetworkOptions options = {});

// ---- Churn workloads ----

struct ChurnOptions {
  std::size_t prefix_count = 8;
  std::size_t event_count = 50;
  /// Mean virtual-time gap between events (exponential).
  SimTime mean_gap_us = 50'000;
  /// Probability an event is a withdraw of a currently advertised route
  /// (vs. a fresh advertisement).
  double withdraw_probability = 0.35;
  /// Probability an event is a local-pref configuration change instead of a
  /// route event.
  double config_change_probability = 0.1;
  std::uint64_t seed = 7;
};

/// Schedules a randomized advertise/withdraw/config-change event sequence on
/// a generated network. Events are pre-planned deterministically from the
/// seed; run the simulator to play them out.
class ChurnWorkload {
 public:
  ChurnWorkload(GeneratedNetwork& net, ChurnOptions options);

  /// Prefixes used by the workload (198.18.i.0/24).
  const std::vector<Prefix>& prefixes() const { return prefixes_; }
  std::size_t scheduled_events() const { return scheduled_; }

 private:
  std::vector<Prefix> prefixes_;
  std::size_t scheduled_ = 0;
};

/// The workload's prefix pool entry i.
Prefix churn_prefix(std::size_t i);

// ---- Internet-scale workloads ----
//
// Everything above drives the simulator; at full-table BGP scale (~10^6
// prefixes) that is neither feasible nor needed. These generators synthesize
// the *capture stream* directly — the records a collector would log — and
// hand each record to a sink (typically a TraceArchiveWriter), so a
// million-record trace never exists in memory.

/// Preferential-attachment (Barabási–Albert) AS-level topology: router i
/// lives in its own AS and attaches to `links_per_router` existing routers
/// chosen proportionally to degree, yielding the heavy-tailed degree
/// distribution of the AS graph. Deterministic for a given rng state.
Topology make_as_topology(std::size_t n, Rng& rng, std::size_t links_per_router = 2);

/// Entry i of the full-table prefix scheme: disjoint /19s interleaved with
/// nested /24s (even i covers odd i+1), so half the table exercises
/// longest-prefix-match the way real covering routes do. Supports i < 2^20.
Prefix full_table_prefix(std::size_t i);

struct FullTableChurnOptions {
  /// Distinct prefixes in the table (<= 2^20). The initial dump emits one
  /// install per prefix, round-robin across routers.
  std::size_t prefix_count = 1u << 20;
  /// Churn records emitted after the initial table dump.
  std::size_t churn_records = 500'000;
  /// Routers logging updates (ids 0..router_count-1).
  std::size_t router_count = 16;
  /// eBGP sessions per router ("peer0".."peerN-1"); update trains pick one.
  std::size_t session_count = 4;
  /// Zipf popularity exponent: churn concentrates on low-index prefixes the
  /// way real BGP churn concentrates on a small hot set. 0 = uniform.
  double zipf_exponent = 1.0;
  /// Probability a churn event withdraws instead of (re)installing.
  double withdraw_probability = 0.3;
  /// Mean length of an update train (bursts of consecutive records from one
  /// router/session, geometric).
  std::size_t burst_mean = 16;
  /// Probability a train is a session reset: a fib_reset marker record
  /// followed by a re-advertisement train.
  double session_reset_probability = 0.002;
  /// Mean virtual-time gap between records (exponential, microseconds).
  SimTime mean_gap_us = 100;
  /// Emit the initial full-table dump (prefix_count installs) before churn.
  bool include_initial_table = true;
  std::uint64_t seed = 42;
};

struct FullTableChurnStats {
  std::uint64_t records = 0;
  std::uint64_t installs = 0;
  std::uint64_t withdraws = 0;
  std::uint64_t bursts = 0;
  std::uint64_t session_resets = 0;
};

// ---- Synthetic traffic demand ----
//
// Verification urgency should follow the traffic, and the simulator has no
// packets — so demand is synthesized the same way the churn is: Zipf over
// prefix rank (the same hot set generate_full_table_churn concentrates
// churn on), split across ingress points into a demand matrix. The weights
// are integers apportioned *exactly* (largest-remainder), so totals are
// conserved bit-for-bit through every downstream aggregation (equivalence
// classes, scheduler coverage accounting).

struct TrafficDemandOptions {
  /// Prefixes carrying demand (rank == index: rank 0 is the hottest).
  std::size_t prefix_count = 1u << 16;
  /// Ingress points the demand matrix splits each prefix's weight across.
  std::size_t ingress_count = 4;
  /// Zipf demand exponent over prefix rank. 0 = uniform.
  double zipf_exponent = 1.0;
  /// Aggregate demand (unit-free: requests/sec, bytes/sec, ...) split
  /// exactly across prefixes.
  std::uint64_t total_weight = 1'000'000'000;
  std::uint64_t seed = 17;
};

struct TrafficDemand {
  std::vector<Prefix> prefixes;
  /// Integer weight per prefix; sums to exactly options.total_weight.
  std::vector<std::uint64_t> prefix_weight;
  /// Demand matrix: ingress_weight[g][i] is ingress g's share of prefix
  /// i's demand; column i sums to prefix_weight[i] exactly.
  std::vector<std::vector<std::uint64_t>> ingress_weight;
  std::uint64_t total = 0;
};

/// Deterministic for given options. `prefix_of` maps rank to prefix
/// (defaults to the full-table scheme, aligning demand rank with churn
/// popularity rank).
TrafficDemand make_traffic_demand(
    const TrafficDemandOptions& options,
    const std::function<Prefix(std::size_t)>& prefix_of = full_table_prefix);

/// Synthesize a full-table BGP churn trace: an initial table dump, then
/// Zipf-popular update trains with occasional session resets. Updates are
/// FIB-update records (install or withdraw) carrying the owning session; a
/// session reset is a fib_reset marker followed by a re-advertisement
/// train. Records arrive at the sink in capture order with monotone
/// ids/times. Deterministic for given options.
FullTableChurnStats generate_full_table_churn(
    const FullTableChurnOptions& options, const std::function<void(const IoRecord&)>& sink);

}  // namespace hbguard
