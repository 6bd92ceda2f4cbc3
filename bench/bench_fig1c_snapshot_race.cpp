// F1c — Fig. 1c: skewed FIB polling makes a data-plane verifier hallucinate.
//
// "The FIB update at R2 is just missed by the verifier (who gets a stale
// FIB entry), while R1 and R3 report their updated FIBs. Consequently, the
// data plane verifier will find a loop between R2 and R1 that sinks all
// traffic destined to P. This loop does not appear in practice."
//
// Many trials sample the network's FIBs with per-router skew while the
// Fig. 1b update propagates. Verdicts are scored against a TruthMonitor
// that tracks real violation intervals: a "false alarm" is a violation the
// snapshot reports that never existed at any instant inside the snapshot's
// own cut window — the Fig. 1c phantom. The HBG-consistent snapshotter is
// given the same skewed horizons.
#include "bench_util.hpp"

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/snapshot/naive.hpp"
#include "hbguard/verify/truth_monitor.hpp"

using namespace hbguard;
using namespace hbguard::bench;

namespace {

struct TrialOutcome {
  WindowVerdict naive;
  WindowVerdict consistent;
  bool naive_phantom_loop = false;
};

TrialOutcome run_trial(SimTime skew_us, std::uint64_t seed, SimTime sample_offset_us) {
  // Busy-router processing delays (5-20 ms per input, like loaded
  // production gear) so the propagation window is realistically wide.
  NetworkOptions options;
  options.seed = seed;
  options.router.proc_delay_min_us = 5'000;
  options.router.proc_delay_max_us = 20'000;
  auto scenario = PaperScenario::make(options);
  Network& net = *scenario.network;
  net.run_to_convergence();
  scenario.advertise_p_via_r1();
  net.run_to_convergence();

  auto policies = paper_policies(scenario);
  Verifier verifier(policies);
  TruthMonitor truth(net, policies);

  // Kick the Fig. 1b update and sample mid-flight.
  scenario.advertise_p_via_r2();
  net.run_for(sample_offset_us);

  NaiveSnapshotter naive(net, skew_us, seed);
  naive.request();
  net.run_for(skew_us + 1);
  DataPlaneSnapshot naive_snapshot = naive.result();

  std::map<RouterId, SimTime> horizons;
  for (const auto& [router, view] : naive_snapshot.routers) horizons[router] = view.as_of;

  net.run_to_convergence();
  auto records = net.capture().records();
  auto hbg = HbgBuilder::build(records, RuleMatchingInference());
  DataPlaneSnapshot consistent = IncrementalSnapshotter::build({}, records, hbg, horizons);

  TrialOutcome outcome;
  outcome.naive = score_against_truth(verifier, naive_snapshot, truth);
  outcome.consistent = score_against_truth(verifier, consistent, truth);

  // Specifically detect the Fig. 1c phantom loop in the naive view.
  std::vector<Violation> loops;
  LoopFreedomPolicy(scenario.prefix_p).check(naive_snapshot, loops);
  outcome.naive_phantom_loop = !loops.empty();
  return outcome;
}

}  // namespace

int main() {
  header("bench_fig1c_snapshot_race",
         "Fig. 1c — per-router snapshot skew vs verifier verdict quality",
         "naive false alarms (incl. phantom loops) appear once skew overlaps "
         "update propagation; HBG-consistent verdicts stay clean",
         /*seed=*/1000);

  Table table({"poll skew", "trials", "naive false alarms", "naive phantom loops",
               "naive missed", "consistent false alarms", "consistent missed"});

  const int kTrials = 150;
  for (SimTime skew : {0LL, 10'000LL, 25'000LL, 60'000LL, 120'000LL, 250'000LL}) {
    std::size_t naive_fp = 0, naive_fn = 0, cons_fp = 0, cons_fn = 0, loops = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      // The poll starts as the update begins propagating (plus a small
      // phase jitter); the per-router skew then decides which routers are
      // sampled before vs after their FIB flip.
      SimTime offset = (trial % 10) * 500;
      TrialOutcome outcome = run_trial(skew, 1000 + trial, offset);
      naive_fp += outcome.naive.false_alarms;
      naive_fn += outcome.naive.missed;
      cons_fp += outcome.consistent.false_alarms;
      cons_fn += outcome.consistent.missed;
      if (outcome.naive_phantom_loop) ++loops;
    }
    table.row({format_duration_us(skew), std::to_string(kTrials), std::to_string(naive_fp),
               std::to_string(loops), std::to_string(naive_fn), std::to_string(cons_fp),
               std::to_string(cons_fn)});
  }
  table.print();

  std::printf("note: a 'false alarm' is a violation reported from the snapshot that never\n"
              "held at any instant inside the snapshot's cut window; 'phantom loops' are\n"
              "the specific Fig. 1c artifact (stale R2 + fresh R1/R3 = R1<->R2 loop).\n\n");
  return 0;
}
