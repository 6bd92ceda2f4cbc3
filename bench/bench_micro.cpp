// Microbenchmarks (google-benchmark) for the hot paths of the guard
// pipeline: FIB longest-prefix match, the BGP decision process, HBR rule
// inference, HBG construction and provenance queries, equivalence-class
// computation, and consistent-snapshot assembly.
//
// These are engineering numbers (host wall-clock, not simulator virtual
// time); the experiment benches live in the other bench_* binaries.
#include <benchmark/benchmark.h>

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/proto/bgp/decision.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/snapshot/naive.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/verify/eqclass.hpp"

namespace hbguard {
namespace {

// ---------------------------------------------------------------------------
// FIB longest-prefix match

void BM_FibLookup(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Fib fib;
  for (std::size_t i = 0; i < count; ++i) {
    FibEntry entry;
    entry.prefix = Prefix(IpAddress(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL))),
                          static_cast<std::uint8_t>(rng.uniform_int(8, 28)));
    entry.action = FibEntry::Action::kForward;
    entry.next_hop = static_cast<RouterId>(i % 16);
    fib.install(entry);
  }
  std::vector<IpAddress> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.emplace_back(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.lookup(probes[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FibLookup)->Arg(100)->Arg(10'000)->Arg(100'000);

// ---------------------------------------------------------------------------
// BGP decision process

void BM_BgpDecision(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<BgpRoute> candidates;
  for (std::size_t i = 0; i < count; ++i) {
    BgpRoute route;
    route.prefix = *Prefix::parse("203.0.113.0/24");
    route.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform_int(50, 150));
    route.attrs.as_path.assign(static_cast<std::size_t>(rng.uniform_int(1, 5)), 64500);
    route.attrs.med = static_cast<std::uint32_t>(rng.uniform_int(0, 100));
    route.ebgp = rng.chance(0.5);
    route.peer = static_cast<RouterId>(i);
    route.peer_as = 64500 + static_cast<AsNumber>(rng.uniform_int(0, 3));
    route.attrs.next_hop =
        route.ebgp ? BgpNextHop::via_external("up") : BgpNextHop::internal(route.peer);
    candidates.push_back(std::move(route));
  }
  BestPathSelector selector({}, [](RouterId) { return std::uint32_t{1}; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(candidates));
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BgpDecision)->Arg(2)->Arg(8)->Arg(64);

// ---------------------------------------------------------------------------
// Shared churn trace for the analysis-path benchmarks.

const std::vector<IoRecord>& churn_trace() {
  static const std::vector<IoRecord> trace = [] {
    NetworkOptions options;
    options.seed = 9;
    Rng rng(9);
    auto generated = make_ibgp_network(make_random_topology(12, 6, rng), 3, options);
    generated.network->run_to_convergence();
    ChurnOptions churn_options;
    churn_options.event_count = 60;
    ChurnWorkload churn(generated, churn_options);
    generated.network->run_to_convergence();
    return generated.network->capture().records();
  }();
  return trace;
}

void BM_RuleInference(benchmark::State& state) {
  const auto& trace = churn_trace();
  RuleMatchingInference rules;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rules.infer(trace));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_RuleInference);

// The Guard scans periodically; keeping the HBG current across K scans
// costs K full rebuilds in scratch mode but only the per-scan deltas in
// incremental mode. These two benchmarks model one guarded run of 20 scans.
void BM_GuardScans_Rebuild(benchmark::State& state) {
  const auto& trace = churn_trace();
  const std::size_t kScans = 20;
  RuleMatchingInference rules;
  for (auto _ : state) {
    for (std::size_t scan = 1; scan <= kScans; ++scan) {
      std::size_t visible = trace.size() * scan / kScans;
      benchmark::DoNotOptimize(
          HbgBuilder::build(std::span<const IoRecord>(trace).subspan(0, visible), rules));
    }
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_GuardScans_Rebuild)->Unit(benchmark::kMillisecond);

void BM_GuardScans_Incremental(benchmark::State& state) {
  const auto& trace = churn_trace();
  const std::size_t kScans = 20;
  for (auto _ : state) {
    IncrementalHbgBuilder builder;
    std::size_t ingested = 0;
    for (std::size_t scan = 1; scan <= kScans; ++scan) {
      std::size_t visible = trace.size() * scan / kScans;
      builder.append(std::span<const IoRecord>(trace).subspan(ingested, visible - ingested));
      ingested = visible;
      benchmark::DoNotOptimize(builder.graph().edge_count());
    }
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_GuardScans_Incremental)->Unit(benchmark::kMillisecond);

void BM_HbgBuild(benchmark::State& state) {
  const auto& trace = churn_trace();
  RuleMatchingInference rules;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HbgBuilder::build(trace, rules));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_HbgBuild);

void BM_RootCauseQuery(benchmark::State& state) {
  const auto& trace = churn_trace();
  auto hbg = HbgBuilder::build(trace, RuleMatchingInference());
  IoId last_fib = kNoIo;
  for (const IoRecord& r : trace) {
    if (r.kind == IoKind::kFibUpdate) last_fib = r.id;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbg.root_causes(last_fib));
  }
}
BENCHMARK(BM_RootCauseQuery);

void BM_ConsistentSnapshot(benchmark::State& state) {
  const auto& trace = churn_trace();
  auto hbg = HbgBuilder::build(trace, RuleMatchingInference());
  for (auto _ : state) {
    benchmark::DoNotOptimize(IncrementalSnapshotter::build({}, trace, hbg, {}));
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_ConsistentSnapshot);

// ---------------------------------------------------------------------------
// Equivalence classes

void BM_EquivalenceClasses(benchmark::State& state) {
  const auto prefixes = static_cast<std::size_t>(state.range(0));
  DataPlaneSnapshot snapshot;
  for (std::size_t r = 0; r < 8; ++r) snapshot.routers[static_cast<RouterId>(r)];
  for (std::size_t i = 0; i < prefixes; ++i) {
    Prefix prefix(IpAddress((10u << 24) | (static_cast<std::uint32_t>(i) << 8)), 24);
    for (std::size_t r = 0; r < 8; ++r) {
      FibEntry entry;
      entry.prefix = prefix;
      entry.action = FibEntry::Action::kForward;
      entry.next_hop = static_cast<RouterId>((r + 1 + i % 4) % 8);
      snapshot.routers[static_cast<RouterId>(r)].entries.install(entry);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_equivalence_classes(snapshot));
  }
  state.SetItemsProcessed(state.iterations() * prefixes);
}
BENCHMARK(BM_EquivalenceClasses)->Arg(1'000)->Arg(10'000);

// ---------------------------------------------------------------------------
// Full simulation throughput: events dispatched per second of host time.

void BM_SimulationChurn(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    NetworkOptions options;
    options.seed = 31;
    Rng rng(31);
    auto generated = make_ibgp_network(make_random_topology(10, 5, rng), 3, options);
    generated.network->run_to_convergence();
    ChurnOptions churn_options;
    churn_options.event_count = 30;
    ChurnWorkload churn(generated, churn_options);
    state.ResumeTiming();

    benchmark::DoNotOptimize(generated.network->run_to_convergence());
  }
}
BENCHMARK(BM_SimulationChurn)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hbguard

BENCHMARK_MAIN();
