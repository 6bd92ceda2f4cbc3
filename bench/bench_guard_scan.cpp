// Guard scan cost under sustained churn: rebuild-per-scan vs incremental.
//
// With the incremental HBG and snapshotter, a scan costs O(new I/Os since
// the last scan) instead of O(full history). This bench drives identical
// long churn workloads through two Guards — one that rebuilds its HBG from
// the full history every scan and re-derives the snapshot from record 0
// (GuardOptions::inference = RuleMatchingInference) and the default
// incremental one — timing every scan() call. Expected shape: the rebuild
// cost grows with trace length, the incremental cost per *new record* stays
// flat, and the runs' GuardReports are byte-identical (digest-checked; any
// divergence exits non-zero so CI fails).
//
// Per-scan cost is printed as late/early growth for reference only: late
// scans of these workloads ingest more records than early ones, so a flat
// pipeline still shows per-scan growth. The µs-per-new-record medians of
// the first and last thirds are the flatness measure.
//
// Writes BENCH_guard_scan.json with the full per-scan cost curves.
// `--smoke` runs a reduced workload for CI.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "hbguard/core/guard.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/sim/workload.hpp"

namespace hbguard::bench {
namespace {

constexpr std::uint64_t kSeed = 71;
/// Pinned worker count for the main comparison: num_threads = 0 resolves
/// to the host's core count, so pinning keeps both pipelines at the same
/// parallelism and numbers compare across hosts.
constexpr unsigned kThreads = 4;

struct WorkloadSpec {
  std::string name;
  Topology topology;
  std::size_t uplinks;
  ChurnOptions churn;
};

struct ScanPoint {
  std::size_t records;      // trace length when the scan ran
  std::size_t new_records;  // records captured since the previous scan
  double ms;                // cost of that scan() call
};

struct RunResult {
  std::vector<ScanPoint> scans;
  double scan_total_ms = 0;  // sum of scan() costs (excludes simulation)
  std::size_t records = 0;
  std::string digest;
  IncrementalSnapshotter::Stats snapshot_stats;
  std::size_t delta_skips = 0;
};

PolicyList churn_policies(std::size_t prefix_count) {
  PolicyList policies;
  for (std::size_t i = 0; i < prefix_count; ++i) {
    Prefix p = churn_prefix(i);
    policies.push_back(std::make_shared<LoopFreedomPolicy>(p));
    policies.push_back(std::make_shared<BlackholeFreedomPolicy>(p));
    policies.push_back(std::make_shared<ReachabilityPolicy>(0, p));
  }
  return policies;
}

/// One full guarded run over the workload, mirroring Guard::run()'s cadence
/// but timing each scan() individually. Both pipelines see the identical
/// deterministic event sequence (same seed, fresh network).
RunResult run_workload(const WorkloadSpec& spec, bool rebuild_every_scan, unsigned num_threads) {
  NetworkOptions options;
  options.seed = kSeed;
  auto generated = make_ibgp_network(spec.topology, spec.uplinks, options);
  Network& net = *generated.network;
  net.run_to_convergence();
  ChurnWorkload churn(generated, spec.churn);

  GuardOptions guard_options;
  guard_options.num_threads = num_threads;
  if (rebuild_every_scan) {
    guard_options.inference = std::make_shared<RuleMatchingInference>(guard_options.matcher);
  }
  Guard guard(net, churn_policies(spec.churn.prefix_count), guard_options);

  RunResult result;
  std::size_t scanned = 0;
  for (std::size_t i = 0; i < guard_options.max_scans; ++i) {
    net.run_for(guard_options.scan_interval_us);
    std::size_t records = net.capture().records().size();
    Stopwatch timer;
    guard.scan();
    double ms = timer.ms();
    result.scans.push_back({records, records - scanned, ms});
    scanned = records;
    result.scan_total_ms += ms;
    if (net.sim().idle()) break;
  }
  result.records = net.capture().records().size();
  result.digest = guard.report().digest();
  result.snapshot_stats = guard.snapshot_stats();
  result.delta_skips = guard.verifier_stats().delta_skips;
  return result;
}

double mean_ms(const std::vector<ScanPoint>& scans, std::size_t begin, std::size_t end) {
  if (begin >= end) return 0.0;
  double sum = 0;
  for (std::size_t i = begin; i < end; ++i) sum += scans[i].ms;
  return sum / static_cast<double>(end - begin);
}

/// Median µs per new record over scans [begin, end) that captured any.
double median_us_per_record(const std::vector<ScanPoint>& scans, std::size_t begin,
                            std::size_t end) {
  std::vector<double> costs;
  for (std::size_t i = begin; i < end; ++i) {
    if (scans[i].new_records > 0) {
      costs.push_back(scans[i].ms * 1e3 / static_cast<double>(scans[i].new_records));
    }
  }
  if (costs.empty()) return 0.0;
  std::sort(costs.begin(), costs.end());
  std::size_t mid = costs.size() / 2;
  return costs.size() % 2 == 1 ? costs[mid] : (costs[mid - 1] + costs[mid]) / 2;
}

/// A run's cost shape: per-scan mean growth (last third over first third)
/// and median µs per new record in the first and last thirds.
struct CostShape {
  double per_scan_growth = 0;
  double early_us_per_record = 0;
  double late_us_per_record = 0;
};

CostShape cost_shape(const RunResult& run) {
  std::size_t n = run.scans.size();
  CostShape shape;
  double early = mean_ms(run.scans, 0, n / 3);
  shape.per_scan_growth = early > 0 ? mean_ms(run.scans, n - n / 3, n) / early : 0.0;
  shape.early_us_per_record = median_us_per_record(run.scans, 0, n / 3);
  shape.late_us_per_record = median_us_per_record(run.scans, n - n / 3, n);
  return shape;
}

void emit_json_run(JsonWriter& json, const char* label, const RunResult& run) {
  CostShape shape = cost_shape(run);
  json.key(label).begin_object();
  json.key("scan_total_ms").value(run.scan_total_ms);
  json.key("per_scan_growth").value(shape.per_scan_growth);
  json.key("early_us_per_record").value(shape.early_us_per_record);
  json.key("late_us_per_record").value(shape.late_us_per_record);
  json.key("curve").begin_array();
  for (const ScanPoint& p : run.scans) {
    json.begin_object()
        .key("records")
        .value(p.records)
        .key("new_records")
        .value(p.new_records)
        .key("ms")
        .value(p.ms)
        .end_object();
  }
  json.end_array();
  json.end_object();
}

bool bench_workload(const WorkloadSpec& spec, JsonWriter& json) {
  std::printf("--- workload: %s ---\n", spec.name.c_str());
  RunResult rebuild = run_workload(spec, /*rebuild_every_scan=*/true, kThreads);
  RunResult incremental = run_workload(spec, /*rebuild_every_scan=*/false, kThreads);
  // Cross-thread-count digest check: the incremental pipeline must stay
  // byte-identical in exact-serial mode too.
  RunResult serial = run_workload(spec, /*rebuild_every_scan=*/false, /*num_threads=*/1);

  bool parity = rebuild.digest == incremental.digest && rebuild.digest == serial.digest;
  double speedup =
      incremental.scan_total_ms > 0 ? rebuild.scan_total_ms / incremental.scan_total_ms : 0.0;

  Table table({"scan#", "trace len", "new records", "rebuild ms", "incremental ms"});
  std::size_t n = std::min(rebuild.scans.size(), incremental.scans.size());
  std::size_t stride = std::max<std::size_t>(1, n / 12);
  for (std::size_t i = 0; i < n; i += stride) {
    table.row({std::to_string(i), std::to_string(rebuild.scans[i].records),
               std::to_string(rebuild.scans[i].new_records), fmt(rebuild.scans[i].ms),
               fmt(incremental.scans[i].ms)});
  }
  table.print();
  CostShape rebuild_shape = cost_shape(rebuild);
  CostShape incremental_shape = cost_shape(incremental);
  std::printf("records      : %zu in %zu scans\n", incremental.records,
              incremental.scans.size());
  std::printf("scan time    : rebuild %s ms, incremental %s ms  (speedup %sx)\n",
              fmt(rebuild.scan_total_ms).c_str(), fmt(incremental.scan_total_ms).c_str(),
              fmt(speedup, 1).c_str());
  std::printf("us/new record: rebuild %s -> %s, incremental %s -> %s "
              "(median, first -> last third of scans)\n",
              fmt(rebuild_shape.early_us_per_record).c_str(),
              fmt(rebuild_shape.late_us_per_record).c_str(),
              fmt(incremental_shape.early_us_per_record).c_str(),
              fmt(incremental_shape.late_us_per_record).c_str());
  std::printf("per-scan     : rebuild %sx, incremental %sx (late/early mean; grows with "
              "records per scan too)\n",
              fmt(rebuild_shape.per_scan_growth, 1).c_str(),
              fmt(incremental_shape.per_scan_growth, 1).c_str());
  std::printf("delta skips  : %zu destinations not re-checked; closure fallbacks: %zu; "
              "full deltas: %zu/%zu\n",
              incremental.delta_skips, incremental.snapshot_stats.closure_fallbacks,
              incremental.snapshot_stats.full_deltas, incremental.snapshot_stats.scans);
  std::printf("parity       : %s\n\n", parity ? "byte-identical reports" : "DIVERGED");

  json.begin_object();
  json.key("name").value(spec.name);
  json.key("records").value(incremental.records);
  json.key("scans").value(incremental.scans.size());
  json.key("speedup").value(speedup);
  json.key("delta_skips").value(incremental.delta_skips);
  json.key("closure_fallbacks").value(incremental.snapshot_stats.closure_fallbacks);
  json.key("parity").value(parity);
  emit_json_run(json, "rebuild", rebuild);
  emit_json_run(json, "incremental", incremental);
  json.end_object();
  return parity;
}

int main_impl(bool smoke) {
  header("guard scan cost: rebuild-per-scan vs incremental pipeline",
         "§5-§6 integrated pipeline at scale (this repo's incremental-scan extension)",
         "rebuild per-scan cost grows with trace length; incremental cost per new record "
         "stays flat; reports byte-identical",
         kSeed);

  Rng waxman_rng(kSeed);
  std::vector<WorkloadSpec> specs;
  {
    ChurnOptions churn;
    churn.prefix_count = smoke ? 6 : 16;
    churn.event_count = smoke ? 60 : 400;
    churn.mean_gap_us = 30'000;
    churn.seed = kSeed + 1;
    specs.push_back({"fat-tree k=4", make_fattree_topology(4), 3, churn});
  }
  {
    ChurnOptions churn;
    churn.prefix_count = smoke ? 6 : 12;
    churn.event_count = smoke ? 60 : 400;
    churn.mean_gap_us = 30'000;
    churn.config_change_probability = 0.15;
    churn.seed = kSeed + 2;
    specs.push_back({"waxman n=24", make_waxman_topology(24, waxman_rng), 3, churn});
  }

  JsonWriter json;
  json.begin_object();
  json.key("bench").value("guard_scan");
  json.key("seed").value(kSeed);
  json.key("smoke").value(smoke);
  json.key("workloads").begin_array();
  bool all_parity = true;
  for (const WorkloadSpec& spec : specs) all_parity &= bench_workload(spec, json);
  json.end_array();
  json.key("parity").value(all_parity);
  json.end_object();
  json.write("BENCH_guard_scan.json");
  std::printf("wrote BENCH_guard_scan.json\n");

  if (!all_parity) {
    std::printf("FAIL: rebuild-per-scan and incremental GuardReports diverged\n");
    return 1;
  }
  return 0;
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
