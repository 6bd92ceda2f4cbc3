// A2 — §5: consistent snapshots eliminate verifier false verdicts.
//
// Larger-scale companion to bench_fig1c: a random 10-router network under
// route churn, with the verifier's per-router view delayed by random skew.
// For each churn rate we sample at many points during convergence; verdicts
// are scored against a TruthMonitor recording the real violation intervals,
// over each snapshot's own cut window.
#include "bench_util.hpp"

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/snapshot/naive.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/verify/truth_monitor.hpp"

using namespace hbguard;
using namespace hbguard::bench;

int main() {
  header("bench_snapshot_consistency",
         "§5 (A2) — verifier verdict quality: naive vs HBG-consistent snapshots",
         "naive false verdicts grow as churn gets denser; consistent stays ~0 "
         "(it rewinds instead of mixing incomparable instants)",
         /*seed=*/11);

  Table table({"mean event gap", "samples", "naive FP", "naive FN", "consistent FP",
               "consistent FN", "consistent+defer FP", "deferred verdicts",
               "avg rewound I/Os"});

  const SimTime kSkew = 80'000;
  for (SimTime gap : {400'000LL, 150'000LL, 60'000LL, 25'000LL}) {
    std::size_t naive_fp = 0, naive_fn = 0, cons_fp = 0, cons_fn = 0, samples = 0;
    std::size_t defer_fp = 0, deferred = 0;
    std::size_t rewound_total = 0;

    for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
      NetworkOptions options;
      options.seed = seed;
      Rng rng(seed);
      auto generated = make_ibgp_network(make_random_topology(10, 5, rng), 3, options);
      Network& net = *generated.network;
      net.run_to_convergence();

      ChurnOptions churn_options;
      churn_options.seed = seed + 100;
      churn_options.event_count = 30;
      churn_options.prefix_count = 5;
      churn_options.mean_gap_us = gap;
      churn_options.config_change_probability = 0.0;  // route churn only
      ChurnWorkload churn(generated, churn_options);

      PolicyList policies;
      for (std::size_t i = 0; i < churn_options.prefix_count; ++i) {
        policies.push_back(std::make_shared<LoopFreedomPolicy>(churn_prefix(i)));
        policies.push_back(std::make_shared<BlackholeFreedomPolicy>(churn_prefix(i)));
      }
      Verifier verifier(policies);
      TruthMonitor truth(net, policies);
      NaiveSnapshotter naive(net, kSkew, seed + 7);

      // Sample repeatedly while the churn plays out.
      while (!net.sim().idle()) {
        net.run_for(gap * 3);
        naive.request();
        net.run_for(kSkew + 1);
        DataPlaneSnapshot naive_snapshot = naive.result();

        std::map<RouterId, SimTime> horizons;
        for (const auto& [router, view] : naive_snapshot.routers) {
          horizons[router] = view.as_of;
        }
        auto records = net.capture().records();
        auto hbg = HbgBuilder::build(records, RuleMatchingInference());
        ConsistencyReport report;
        DataPlaneSnapshot consistent =
            IncrementalSnapshotter::build({}, records, hbg, horizons, &report);

        auto naive_verdict = score_against_truth(verifier, naive_snapshot, truth);
        auto cons_verdict = score_against_truth(verifier, consistent, truth);
        naive_fp += naive_verdict.false_alarms;
        naive_fn += naive_verdict.missed;
        cons_fp += cons_verdict.false_alarms;
        cons_fn += cons_verdict.missed;

        // §5's "wait" remedy: defer verdicts for prefixes whose updates are
        // still propagating at the cut (detected from the HBG itself).
        PolicyList settled;
        for (const auto& policy : policies) {
          bool flux = false;
          for (const Prefix& prefix : policy->prefixes()) {
            if (report.in_flux.contains(prefix)) flux = true;
          }
          if (flux) {
            ++deferred;
          } else {
            settled.push_back(policy);
          }
        }
        Verifier settled_verifier(settled);
        auto defer_verdict = score_against_truth(settled_verifier, consistent, truth);
        defer_fp += defer_verdict.false_alarms;
        rewound_total += report.total_rewound();
        ++samples;
      }
    }
    table.row({format_duration_us(gap), std::to_string(samples), std::to_string(naive_fp),
               std::to_string(naive_fn), std::to_string(cons_fp), std::to_string(cons_fn),
               std::to_string(defer_fp), std::to_string(deferred),
               samples > 0 ? fmt(static_cast<double>(rewound_total) / samples, 1) : "0"});
  }
  table.print();

  std::printf("note: a false verdict is one that held at no instant inside the snapshot's\n"
              "cut window (FP) or was missed despite holding across the whole window (FN).\n"
              "'Rewound I/Os' is the staleness the consistent snapshotter pays for\n"
              "soundness, as §5 prescribes.\n\n");
  return 0;
}
