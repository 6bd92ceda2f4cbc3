// A9 — data-plane verification at 1, 2, 4 and 8 threads, and the parity
// gate over them.
//
// Every thread count runs the one verifier path: each policy traces its
// destinations on the fly, and a pool only splits the list of policies to
// check across its workers. The digest column compares every thread
// count's reports with t=1's; the bench exits non-zero if any differs.
#include "bench_util.hpp"

#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/naive.hpp"
#include "hbguard/verify/verifier.hpp"

using namespace hbguard;
using namespace hbguard::bench;

namespace {

constexpr std::uint64_t kSeed = 93;
constexpr std::size_t kPrefixes = 8;
constexpr std::size_t kChurnSteps = 12;
constexpr int kRounds = 5;  // timed repetitions per thread count

struct Workload {
  std::string name;
  std::vector<DataPlaneSnapshot> snapshots;  // one per churn step
  PolicyList policies;
};

/// Converge the network, then take one instantaneous snapshot after each
/// churn event (advertise/withdraw on a random uplink). Deterministic in
/// `seed`.
Workload make_workload(std::string name, Topology topology, std::uint64_t seed) {
  Workload workload;
  workload.name = std::move(name);

  NetworkOptions options;
  options.seed = seed;
  auto generated = make_ibgp_network(std::move(topology), 3, options);
  Network& net = *generated.network;
  net.run_to_convergence();

  for (std::size_t i = 0; i < kPrefixes; ++i) {
    const UplinkInfo& uplink = generated.uplinks[i % generated.uplinks.size()];
    net.inject_external_advert(uplink.router, uplink.session, churn_prefix(i),
                               {uplink.peer_as, static_cast<AsNumber>(65100 + i)});
  }
  net.run_to_convergence();

  // Five policies per prefix — realistic intent density. The mix is
  // mostly-clean (like production verification), so timing measures
  // tracing, not violation-report formatting.
  for (std::size_t i = 0; i < kPrefixes; ++i) {
    Prefix p = churn_prefix(i);
    workload.policies.push_back(std::make_shared<LoopFreedomPolicy>(p));
    workload.policies.push_back(std::make_shared<BlackholeFreedomPolicy>(p));
    workload.policies.push_back(std::make_shared<ReachabilityPolicy>(0, p));
    workload.policies.push_back(std::make_shared<ReachabilityPolicy>(1, p));
    workload.policies.push_back(std::make_shared<ReachabilityPolicy>(2, p));
  }

  Rng rng(seed + 1);
  std::set<std::pair<std::size_t, std::size_t>> advertised;
  for (std::size_t i = 0; i < kPrefixes; ++i) {
    advertised.emplace(i % generated.uplinks.size(), i);
  }
  for (std::size_t step = 0; step < kChurnSteps; ++step) {
    auto uplink_index = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(generated.uplinks.size()) - 1));
    auto prefix_index =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(kPrefixes) - 1));
    const UplinkInfo& uplink = generated.uplinks[uplink_index];
    auto key = std::make_pair(uplink_index, prefix_index);
    bool withdraw = advertised.contains(key) && rng.chance(0.4);
    if (withdraw) {
      advertised.erase(key);
    } else {
      advertised.insert(key);
    }
    net.inject_external_advert(uplink.router, uplink.session, churn_prefix(prefix_index),
                               {uplink.peer_as, static_cast<AsNumber>(65100 + prefix_index)},
                               withdraw);
    net.run_to_convergence();
    workload.snapshots.push_back(take_instant_snapshot(net));
  }
  return workload;
}

std::string digest(const std::vector<VerifyResult>& results) {
  std::string out;
  for (const VerifyResult& result : results) {
    for (const Violation& v : result.violations) {
      out += v.describe();
      out += '\n';
    }
    out += "--\n";
  }
  return out;
}

/// Returns false if any thread count's reports differ from t=1's.
bool run_workload(const Workload& workload, Table& table) {
  double serial_ms = 0.0;
  std::string serial_digest;
  bool all_identical = true;

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    Verifier verifier(workload.policies, VerifierOptions{threads});

    // One untimed pass, then timed rounds over the whole churn sequence.
    std::vector<VerifyResult> results(workload.snapshots.size());
    for (std::size_t s = 0; s < workload.snapshots.size(); ++s) {
      results[s] = verifier.verify(workload.snapshots[s]);
    }
    std::string first_digest = digest(results);

    Stopwatch timer;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t s = 0; s < workload.snapshots.size(); ++s) {
        results[s] = verifier.verify(workload.snapshots[s]);
      }
    }
    double ms = timer.ms() / kRounds;

    if (threads == 1) {
      serial_ms = ms;
      serial_digest = first_digest;
    }
    bool identical = first_digest == serial_digest && digest(results) == serial_digest;
    all_identical = all_identical && identical;

    table.row({workload.name, std::to_string(threads), fmt(ms, 2),
               threads == 1 ? "1.00x" : fmt(serial_ms / ms, 2) + "x", identical ? "yes" : "NO"});
  }
  return all_identical;
}

}  // namespace

int main() {
  header("bench_parallel_verify", "A9 — verification time and report parity across thread counts",
         "reports at 2, 4 and 8 threads are byte-identical to t=1's (exit non-zero "
         "otherwise); time per sweep is reported, not gated",
         kSeed);

  Table table({"workload", "threads", "ms/sweep", "speedup", "== t=1"});

  Rng waxman_rng(kSeed);
  bool fat_tree_identical =
      run_workload(make_workload("fat-tree k=4", make_fattree_topology(4), kSeed), table);
  bool waxman_identical = run_workload(
      make_workload("waxman n=24", make_waxman_topology(24, waxman_rng), kSeed + 1), table);
  table.print();

  std::printf("note: one sweep = verifying all %zu churn-step snapshots (%zu prefixes x 5\n"
              "policies). Each verify() is a full check: no delta, so no verdict reuse.\n"
              "Every thread count runs the same path; a pool splits the policy list.\n\n",
              kChurnSteps, kPrefixes);
  if (!fat_tree_identical || !waxman_identical) {
    std::printf("GATE FAILED: a thread count's reports differ from t=1's\n");
    return 1;
  }
  return 0;
}
