// F5 — Fig. 5 + §7: the feasibility study timeline.
//
// The paper's emulated-Cisco experiment: from the correct state (traffic to
// P via R2), the operator sets local-pref 200 on R1. After the ~20-25 s
// soft-reconfiguration delay, R1 revisits its stored routes, installs the
// direct route, announces it, and R2/R3 follow; R2 withdraws its own route.
// The bench prints the captured HBG as a per-router timeline with
// inter-event latencies (the Fig. 5 rendering) and then reproduces §7's
// snapshot-inconsistency observation: with only R3's new FIB reported, a
// naive verifier concludes the path is R3-R1-P and compliant-looking data
// exists, while the HBG reveals R1's log is incomplete and the consistent
// snapshotter rewinds R3.
#include "bench_util.hpp"

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/render.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/snapshot/naive.hpp"

using namespace hbguard;
using namespace hbguard::bench;

int main() {
  header("bench_fig5_feasibility",
         "Fig. 5 / §7 — HBG captured from the emulated network, with timings",
         "config -> (soft reconfig ~20s) -> FIB install -> iBGP ads -> peers' "
         "FIBs -> R2 withdraws; stale-R1 snapshot detected via the HBG");

  // ~20 s soft-reconfiguration on R1, as §7 observed on IOS.
  auto scenario = PaperScenario::make();
  scenario.network->apply_config_change(scenario.r1, "enable IOS-like soft reconfiguration",
                                        [](RouterConfig& config) {
                                          config.bgp.quirks.soft_reconfig_delay_us = 20'000'000;
                                        });
  scenario.converge_initial();
  std::size_t prelude = scenario.network->capture().records().size();
  SimTime change_at = scenario.network->sim().now();

  scenario.reconfigure_r1_lp200();
  scenario.network->run_to_convergence();

  auto all_records = scenario.network->capture().records();
  auto hbg = HbgBuilder::build(all_records, RuleMatchingInference());

  // Incident slice for rendering.
  HappensBeforeGraph incident;
  for (std::size_t i = prelude; i < all_records.size(); ++i) {
    const IoRecord& r = all_records[i];
    if (!r.prefix.has_value() || *r.prefix == scenario.prefix_p ||
        r.kind == IoKind::kConfigChange) {
      incident.add_vertex(r);
    }
  }
  hbg.for_each_edge([&](const HbgEdge& edge) {
    if (incident.has_vertex(edge.from) && incident.has_vertex(edge.to)) incident.add_edge(edge);
  });

  std::printf("%s\n", to_timeline(incident, &scenario.network->topology()).c_str());

  // Headline timings (the numbers annotated in Fig. 5).
  SimTime config_time = 0, r1_fib = 0, r1_send = 0, r2_withdraw = 0;
  for (std::size_t i = prelude; i < all_records.size(); ++i) {
    const IoRecord& r = all_records[i];
    if (r.kind == IoKind::kConfigChange && r.router == scenario.r1) config_time = r.true_time;
    if (r.kind == IoKind::kFibUpdate && r.router == scenario.r1 && !r.withdraw &&
        r.prefix == scenario.prefix_p && r1_fib == 0) {
      r1_fib = r.true_time;
    }
    if (r.kind == IoKind::kSendAdvert && r.router == scenario.r1 && !r.withdraw &&
        r.prefix == scenario.prefix_p && r1_send == 0) {
      r1_send = r.true_time;
    }
    if (r.kind == IoKind::kSendAdvert && r.router == scenario.r2 && r.withdraw &&
        r.prefix == scenario.prefix_p) {
      r2_withdraw = r.true_time;
    }
  }
  Table timings({"interval (paper's Fig. 5 annotations)", "this run"});
  timings.row({"config -> R1 soft reconfiguration + FIB install (paper ~25s + 4ms)",
               format_duration_us(r1_fib - config_time)});
  timings.row({"R1 FIB install -> R1 iBGP announcement (paper ~4-8ms)",
               format_duration_us(r1_send - r1_fib)});
  timings.row({"config -> R2 withdraws own route (end of cascade)",
               format_duration_us(r2_withdraw - config_time)});
  timings.print();
  (void)change_at;

  // §7's verifier experiment: only R3's post-change log has arrived.
  // R1's horizon stops before its FIB flip.
  std::map<RouterId, SimTime> horizons{{scenario.r1, r1_fib - 1000},
                                       {scenario.r2, r1_fib - 1000}};
  ConsistencyReport report;
  auto snapshot = IncrementalSnapshotter::build({}, all_records, hbg, horizons, &report);

  Table consistency({"router", "records rewound", "why"});
  for (const auto& [router, count] : report.rewound) {
    consistency.row({scenario.network->topology().router(router).name, std::to_string(count),
                     count > 0 ? "depends on I/Os missing from R1/R2's reported logs" : "-"});
  }
  consistency.print();

  const FibEntry* r3_view = snapshot.lookup(scenario.r3, representative(scenario.prefix_p));
  std::printf("consistent snapshot: R3's view of P = %s\n",
              r3_view != nullptr ? r3_view->describe().c_str() : "(no route)");
  std::printf("(the verifier 'waits until it receives the up-to-date HBG from R1' --\n"
              " operationally, R3 is rewound to the pre-update state, so no phantom\n"
              " R3->R1->R2 path is ever evaluated)\n\n");

  bool shape_ok = (r1_fib - config_time) >= 20'000'000 && r2_withdraw > r1_send &&
                  report.total_rewound() > 0;
  std::printf("verdict: timeline shape %s the Fig. 5 expectation\n\n",
              shape_ok ? "MATCHES" : "DOES NOT MATCH");
  return shape_ok ? 0 : 1;
}
