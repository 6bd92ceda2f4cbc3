// Traffic-weighted verification scheduling: bounded weighted time-to-detect.
//
// The tentpole claim (ISSUE 10): when a full verification sweep does not
// fit the scan cadence, ordering the verifier's budgeted work by traffic
// weight bounds the p99 time-to-detect *weighted by the traffic each
// detection protects* — the SLA a network serving real users cares about —
// while unweighted round-robin spreads the same budget evenly and lets the
// hottest prefixes wait a full rotation.
//
// Three parts, each a CI gate (non-zero exit on failure):
//   1. Million-prefix Zipf demand generation + weighted equivalence
//      classes: per-class traffic weights must conserve the demand over
//      the present prefixes *exactly* (integer arithmetic, no drift).
//   2. Detection-latency simulation: N destinations under Zipf(s=2)
//      demand, a scan budget of K destinations per scan, churn dirtying
//      weighted-random destinations every scan. Gate: round-robin's
//      weighted p99 TTD >= 3x the weighted scheduler's.
//   3. Uniform-weight digest parity: scheduling enabled with no weights
//      and a full budget must leave GuardReport::digest() byte-identical
//      at 1, 2 and 8 threads.
//
// Writes BENCH_traffic_weighted.json. `--smoke` runs reduced sizes for CI.
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "hbguard/core/guard.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/util/rng.hpp"
#include "hbguard/verify/eqclass.hpp"
#include "hbguard/verify/traffic.hpp"

namespace hbguard::bench {
namespace {

constexpr std::uint64_t kSeed = 83;

// ---- Part 1: million-prefix demand + exact EC weight conservation ---------

struct ConservationResult {
  std::size_t demand_prefixes = 0;
  std::size_t present_prefixes = 0;
  std::size_t classes = 0;
  double demand_ms = 0;
  double classes_ms = 0;
  std::uint64_t class_weight_total = 0;
  std::uint64_t present_weight_total = 0;
  bool exact() const { return class_weight_total == present_weight_total; }
};

ConservationResult run_conservation(bool smoke) {
  ConservationResult result;
  TrafficDemandOptions demand_options;
  demand_options.prefix_count = smoke ? (1u << 16) : (1u << 20);
  demand_options.ingress_count = 4;
  demand_options.zipf_exponent = 1.0;
  demand_options.seed = kSeed;
  Stopwatch demand_watch;
  TrafficDemand demand = make_traffic_demand(demand_options);
  result.demand_ms = demand_watch.ms();
  result.demand_prefixes = demand.prefixes.size();

  auto weights = std::make_shared<TrafficWeights>();
  for (std::size_t i = 0; i < demand.prefixes.size(); ++i) {
    weights->set(demand.prefixes[i], demand.prefix_weight[i]);
  }

  // Install a hot present subset (the full-table scheme's nested /24s make
  // the interval structure split) and aggregate weights through the batch
  // EC computation.
  std::size_t present = smoke ? (1u << 14) : (1u << 17);
  DataPlaneSnapshot snapshot;
  std::vector<FibEntry> r0;
  std::vector<FibEntry> r1;
  Rng rng(kSeed);
  for (std::size_t i = 0; i < present; ++i) {
    FibEntry entry;
    entry.prefix = demand.prefixes[i];
    entry.source = Protocol::kEbgp;
    entry.action = FibEntry::Action::kForward;
    entry.next_hop = static_cast<RouterId>(rng.uniform_int(0, 1));
    r0.push_back(entry);
    if (rng.chance(0.5)) r1.push_back(entry);
  }
  snapshot.routers[0].entries = FibTable(std::move(r0));
  snapshot.routers[1].entries = FibTable(std::move(r1));
  result.present_prefixes = present;

  Stopwatch classes_watch;
  EquivalenceClasses classes = compute_equivalence_classes(snapshot, weights);
  result.classes_ms = classes_watch.ms();
  result.classes = classes.classes.size();
  for (const EquivalenceClass& ec : classes.classes) {
    result.class_weight_total += ec.traffic_weight;
  }
  for (const Prefix& prefix : snapshot.all_prefixes()) {
    result.present_weight_total += weights->weight_of(prefix);
  }
  return result;
}

// ---- Part 2: weighted vs round-robin time-to-detect -----------------------

struct TtdParams {
  std::size_t items = 4096;
  std::size_t budget = 256;     // destinations verified per scan
  std::size_t warmup_scans = 20;  // drain the initial never-verified cohort
  std::size_t scans = 400;
  std::size_t dirty_per_scan = 64;
  double zipf = 2.0;  // heavier than churn's 1.0: the hot set is sharp
  /// Aging horizon. Chosen past the measurement window so the window shows
  /// the pure weight order; the starvation bound (aging + N/budget scans)
  /// is pinned by tests/test_traffic_weighted.cpp, not timed here.
  std::size_t aging_scans = 2000;
};

struct TtdResult {
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
  std::uint64_t detections = 0;
  std::uint64_t censored = 0;  // still-dirty at window end (flushed, lower bound)
  double mean_covered = 0;
};

/// Simulate detection latency: each scan dirties weighted-random
/// destinations (a violation appears there), plans a budgeted scan, and
/// records gap = scans-from-dirty-to-coverage, weighted by the
/// destination's demand. Dirty destinations never covered by the window's
/// end are flushed with their elapsed wait — a lower bound, so censoring
/// can only hurt the measured policy, never flatter it.
TtdResult run_ttd(const TtdParams& params, SchedulePolicy policy,
                  const TrafficDemand& demand) {
  TrafficScheduleOptions options;
  options.enabled = true;
  options.policy = policy;
  options.max_items = params.budget;
  options.aging_scans = params.aging_scans;
  TrafficScheduler scheduler(options);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> universe;
  for (std::size_t i = 0; i < params.items; ++i) {
    universe.emplace_back(static_cast<std::uint32_t>(i), demand.prefix_weight[i]);
  }
  scheduler.sync_items(universe);

  // Cumulative weight table for weighted dirty sampling.
  std::vector<std::uint64_t> cumulative(params.items);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < params.items; ++i) {
    acc += demand.prefix_weight[i];
    cumulative[i] = acc;
  }
  Rng rng(kSeed + (policy == SchedulePolicy::kWeighted ? 1 : 2));
  auto draw_item = [&]() {
    auto ticket = static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(acc)));
    return static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), ticket) -
        cumulative.begin());
  };

  std::vector<std::size_t> dirty_since(params.items, 0);  // 0 = clean
  DetectionLatencyHistogram ttd;
  std::uint64_t covered_total = 0;
  for (std::size_t scan = 1; scan <= params.warmup_scans + params.scans; ++scan) {
    if (scan > params.warmup_scans) {
      for (std::size_t d = 0; d < params.dirty_per_scan; ++d) {
        std::size_t item = draw_item();
        if (dirty_since[item] == 0) dirty_since[item] = scan;
      }
    }
    ScheduledScan planned = scheduler.plan();
    scheduler.mark_verified(planned.covered);
    covered_total += planned.covered.size();
    for (std::uint32_t bits : planned.covered) {
      std::size_t& since = dirty_since[bits];
      if (since != 0) {
        ttd.record(scan - since + 1, demand.prefix_weight[bits]);
        since = 0;
      }
    }
  }
  TtdResult result;
  std::size_t end = params.warmup_scans + params.scans;
  for (std::size_t i = 0; i < params.items; ++i) {
    if (dirty_since[i] != 0) {
      ttd.record(end - dirty_since[i] + 1, demand.prefix_weight[i]);
      ++result.censored;
    }
  }
  result.p50 = ttd.weighted_percentile(0.50);
  result.p99 = ttd.weighted_percentile(0.99);
  result.max = ttd.max_gap();
  result.detections = ttd.samples();
  result.mean_covered =
      static_cast<double>(covered_total) / static_cast<double>(end);
  return result;
}

// ---- Part 3: uniform-weight digest parity ---------------------------------

std::string guarded_digest(unsigned threads, bool traffic) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  GuardOptions options;
  options.num_threads = threads;
  options.traffic.enabled = traffic;  // defaults: full coverage, no weights
  Guard guard(*scenario.network, paper_policies(scenario), options);
  scenario.misconfigure_r2_lp10();
  return guard.run().digest();
}

int main_impl(bool smoke) {
  header("bench_traffic_weighted — weighted p99 time-to-detect under a scan budget",
         "ISSUE 10 tentpole; ROADMAP \"traffic-weighted verification\"",
         "weighted scheduling detects hot-prefix violations ~1 scan after they "
         "appear; round-robin's weighted p99 is >= 3x worse at the same budget",
         kSeed);

  bool ok = true;

  // Part 1 — exact conservation at (near) full-table scale.
  ConservationResult conservation = run_conservation(smoke);
  Table t1({"demand prefixes", "present", "classes", "demand gen", "EC compute",
            "class weight", "present weight", "exact"});
  t1.row({std::to_string(conservation.demand_prefixes),
          std::to_string(conservation.present_prefixes),
          std::to_string(conservation.classes), fmt(conservation.demand_ms, 1) + "ms",
          fmt(conservation.classes_ms, 1) + "ms",
          std::to_string(conservation.class_weight_total),
          std::to_string(conservation.present_weight_total),
          conservation.exact() ? "OK" : "DRIFT"});
  t1.print();
  if (!conservation.exact()) {
    std::printf("GATE FAILED: EC traffic weights drifted from the demand total\n");
    ok = false;
  }

  // Part 2 — weighted vs round-robin TTD under the same budget.
  TtdParams params;
  if (smoke) {
    params.items = 1024;
    params.budget = 64;
    params.scans = 120;
    params.dirty_per_scan = 32;
    params.aging_scans = 600;
  }
  TrafficDemandOptions demand_options;
  demand_options.prefix_count = params.items;
  demand_options.zipf_exponent = params.zipf;
  demand_options.seed = kSeed;
  TrafficDemand demand = make_traffic_demand(demand_options);
  TtdResult weighted = run_ttd(params, SchedulePolicy::kWeighted, demand);
  TtdResult round_robin = run_ttd(params, SchedulePolicy::kRoundRobin, demand);

  Table t2({"policy", "wp50 ttd", "wp99 ttd", "max", "detections", "censored",
            "covered/scan"});
  auto ttd_row = [&](const char* name, const TtdResult& r) {
    t2.row({name, std::to_string(r.p50) + " scans", std::to_string(r.p99) + " scans",
            std::to_string(r.max), std::to_string(r.detections),
            std::to_string(r.censored), fmt(r.mean_covered, 1)});
  };
  ttd_row("weighted", weighted);
  ttd_row("round-robin", round_robin);
  t2.print();
  double ratio = weighted.p99 > 0 ? static_cast<double>(round_robin.p99) /
                                        static_cast<double>(weighted.p99)
                                  : 0;
  std::printf("weighted p99 advantage: %.2fx (gate: >= 3x)\n\n", ratio);
  if (ratio < 3.0) {
    std::printf("GATE FAILED: weighted p99 TTD advantage %.2fx < 3x\n", ratio);
    ok = false;
  }

  // Part 3 — uniform full-budget digest parity across thread counts.
  Table t3({"threads", "digest parity"});
  bool parity_ok = true;
  for (unsigned threads : {1u, 2u, 8u}) {
    bool same = guarded_digest(threads, false) == guarded_digest(threads, true);
    parity_ok &= same;
    t3.row({std::to_string(threads), same ? "OK" : "MISMATCH"});
  }
  t3.print();
  if (!parity_ok) {
    std::printf("GATE FAILED: uniform-weight scheduling changed the report digest\n");
    ok = false;
  }

  JsonWriter json;
  json.begin_object();
  json.key("bench").value("traffic_weighted");
  json.key("smoke").value(smoke);
  json.key("seed").value(kSeed);
  json.key("conservation").begin_object();
  json.key("demand_prefixes").value(conservation.demand_prefixes);
  json.key("present_prefixes").value(conservation.present_prefixes);
  json.key("classes").value(conservation.classes);
  json.key("demand_ms").value(conservation.demand_ms);
  json.key("classes_ms").value(conservation.classes_ms);
  json.key("class_weight_total").value(conservation.class_weight_total);
  json.key("present_weight_total").value(conservation.present_weight_total);
  json.key("exact").value(conservation.exact());
  json.end_object();
  json.key("ttd").begin_object();
  json.key("items").value(params.items);
  json.key("budget").value(params.budget);
  json.key("scans").value(params.scans);
  json.key("dirty_per_scan").value(params.dirty_per_scan);
  json.key("zipf_exponent").value(params.zipf);
  json.key("aging_scans").value(params.aging_scans);
  auto emit_ttd = [&](const char* name, const TtdResult& r) {
    json.key(name).begin_object();
    json.key("weighted_p50_scans").value(r.p50);
    json.key("weighted_p99_scans").value(r.p99);
    json.key("max_gap_scans").value(r.max);
    json.key("detections").value(r.detections);
    json.key("censored").value(r.censored);
    json.key("mean_covered_per_scan").value(r.mean_covered);
    json.end_object();
  };
  emit_ttd("weighted", weighted);
  emit_ttd("round_robin", round_robin);
  json.key("p99_advantage").value(ratio);
  json.end_object();
  json.key("digest_parity").value(parity_ok);
  json.key("pass").value(ok);
  json.end_object();
  json.write("BENCH_traffic_weighted.json");
  std::printf("wrote BENCH_traffic_weighted.json\n");

  std::printf(ok ? "PASS\n" : "FAIL\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hbguard::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return hbguard::bench::main_impl(smoke);
}
