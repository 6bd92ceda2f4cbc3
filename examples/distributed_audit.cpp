// Offline audit of a larger network from its captured I/O logs.
//
// Demonstrates the analysis half of the library without the online guard:
// generate a 16-router network under route churn, then — using nothing but
// the captured control-plane I/O stream —
//   * infer the happens-before graph (rule matching),
//   * assemble a consistent data-plane snapshot at staggered per-router
//     horizons (as a log collector would see mid-transfer),
//   * verify reachability policies on it,
//   * compare centralized vs distributed verification cost,
//   * compute the forwarding equivalence classes.
//
//   $ ./distributed_audit
#include <cstdio>

#include "hbguard/dverify/distributed.hpp"
#include "hbguard/util/strings.hpp"
#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/verify/eqclass.hpp"

using namespace hbguard;

int main() {
  // --- Build and exercise the network ---
  NetworkOptions options;
  options.seed = 2026;
  Rng rng(options.seed);
  auto generated = make_ibgp_network(make_random_topology(16, 8, rng), 3, options);
  Network& net = *generated.network;
  net.run_to_convergence();

  ChurnOptions churn_options;
  churn_options.prefix_count = 6;
  churn_options.event_count = 60;
  ChurnWorkload churn(generated, churn_options);
  net.run_to_convergence();

  auto records = net.capture().records();
  std::printf("captured %zu control-plane I/Os from %zu routers\n", records.size(),
              net.router_count());

  // --- Infer the HBG ---
  RuleMatchingInference rules;
  auto hbg = HbgBuilder::build(records, rules);
  auto score = score_inference(records, rules.infer(records));
  std::printf("HBG: %zu vertices, %zu edges (inference precision %.2f, recall %.2f)\n\n",
              hbg.vertex_count(), hbg.edge_count(), score.precision(), score.recall());

  // --- Consistent snapshot at staggered horizons ---
  std::map<RouterId, SimTime> horizons;
  SimTime end = net.sim().now();
  for (std::size_t i = 0; i < net.router_count(); ++i) {
    // Router i's log upload lags by 30ms per index (a slow collector).
    horizons[static_cast<RouterId>(i)] = end - static_cast<SimTime>(i) * 30'000;
  }
  ConsistencyReport report;
  auto snapshot = IncrementalSnapshotter::build({}, records, hbg, horizons, &report);
  std::printf("consistent snapshot assembled: %zu I/Os rewound across %zu routers "
              "(%zu closure iterations)\n",
              report.total_rewound(), report.rewound.size(), report.iterations);

  // --- Verify ---
  PolicyList policies;
  for (std::size_t i = 0; i < churn_options.prefix_count; ++i) {
    policies.push_back(std::make_shared<LoopFreedomPolicy>(churn_prefix(i)));
    policies.push_back(std::make_shared<BlackholeFreedomPolicy>(churn_prefix(i)));
  }
  DistributedVerifier verifier(net.topology(), policies);
  VerifyCost distributed;
  auto result = verifier.verify(snapshot, &distributed);
  VerifyCost centralized = verifier.centralized_cost(snapshot);

  std::printf("verification: %zu violation(s)\n", result.violations.size());
  for (const Violation& violation : result.violations) {
    std::printf("  %s\n", violation.describe().c_str());
  }
  std::printf("\ncost comparison (same verdicts either way):\n");
  std::printf("  centralized: %4zu msgs, %5zu entries moved, max node work %5zu, latency %s\n",
              centralized.messages, centralized.payload_entries, centralized.max_node_work,
              format_duration_us(centralized.latency_us).c_str());
  std::printf("  distributed: %4zu msgs, %5zu entries moved, max node work %5zu, latency %s\n",
              distributed.messages, distributed.payload_entries, distributed.max_node_work,
              format_duration_us(distributed.latency_us).c_str());

  // --- Equivalence classes ---
  auto classes = compute_equivalence_classes(snapshot);
  std::printf("\nforwarding equivalence classes: %zu (over %zu atomic intervals)\n",
              classes.classes.size(), classes.atomic_intervals);
  for (std::size_t i = 0; i < classes.classes.size() && i < 8; ++i) {
    std::printf("  class %zu: representative %s, %llu addresses\n", i,
                classes.classes[i].representative.to_string().c_str(),
                static_cast<unsigned long long>(classes.classes[i].size));
  }
  return 0;
}
