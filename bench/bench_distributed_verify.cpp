// A3 — §5 "Distributed verification": centralized vs distributed cost,
// plus sharded distributed-HBG *construction*.
//
// "[Distributed verification] adds time overhead, due to the delay in
// passing partial verification results between routers, but the approach
// avoids the potential for bottlenecks at a centralized verifier."
//
// Part 1 sweeps topology size; for each, verify the converged snapshot both
// ways and report messages, payload, per-node work (the bottleneck metric)
// and critical-path latency.
//
// Part 2 builds the sharded HBG of a large churn trace at 1, 4 and 8
// shards: per-shard rule matching, cross-shard send→recv pairs exchanged as
// encoded shard_wire frames. It prints the §5 feasibility accounting
// (per-router resident bytes, real encoded bytes on the wire, encode/decode
// time) and the build time against the single-graph build — information
// only, since §5's claims are locality and bytes, not speed — and enforces
// two gates:
//   * byte-identical queries — every sampled root_causes/ancestors answer
//     must match the single-graph oracle exactly (exit 1 on divergence);
//   * wire budget — the 8-shard exchange must spend no more than 32 encoded
//     bytes per cross-shard edge it discovers.
// Writes BENCH_distributed_hbg.json.
#include "bench_util.hpp"

#include <functional>

#include "hbguard/dverify/distributed.hpp"
#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/provenance/distributed_hbg.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/naive.hpp"

using namespace hbguard;
using namespace hbguard::bench;

namespace {

/// Deterministic high-churn trace for the construction benchmark.
std::vector<IoRecord> construction_trace(std::uint64_t seed, std::size_t routers,
                                         std::size_t churn_events) {
  Rng topo_rng(seed);
  NetworkOptions options;
  options.seed = seed;
  auto generated = make_ibgp_network(make_waxman_topology(routers, topo_rng), 3, options);
  Network& net = *generated.network;
  net.run_to_convergence();

  ChurnOptions churn_options;
  churn_options.prefix_count = 12;
  churn_options.event_count = churn_events;
  churn_options.config_change_probability = 0;
  churn_options.seed = seed + 1;
  ChurnWorkload churn(generated, churn_options);
  net.run_for(20'000'000);
  net.run_to_convergence();
  return std::vector<IoRecord>(net.capture().records().begin(),
                               net.capture().records().end());
}

double best_of(int runs, const std::function<double()>& once) {
  double best = 0;
  for (int i = 0; i < runs; ++i) {
    double ms = once();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  header("bench_distributed_verify",
         "§5 (A3) — centralized vs distributed verification + sharded HBG construction",
         "distributed: bounded per-node work, more messages, higher latency; "
         "sharded construction: identical queries, <= 32 wire bytes per cross edge",
         /*seed=*/77);

  Table table({"routers", "prefixes", "c.msgs", "d.msgs", "c.max-node-work", "d.max-node-work",
               "c.latency", "d.latency"});
  Table provenance({"routers", "HBG vertices", "cross-router edges", "query messages",
                    "routers contacted", "same roots as centralized"});

  int exit_code = 0;
  for (std::size_t n : {5, 10, 20, 40, 80}) {
    NetworkOptions options;
    options.seed = 77 + n;
    Rng rng(options.seed);
    auto generated = make_ibgp_network(make_random_topology(n, n / 2, rng), 3, options);
    Network& net = *generated.network;
    net.run_to_convergence();

    const std::size_t kPrefixes = 8;
    for (std::size_t i = 0; i < kPrefixes; ++i) {
      const UplinkInfo& uplink = generated.uplinks[i % generated.uplinks.size()];
      net.inject_external_advert(uplink.router, uplink.session, churn_prefix(i),
                                 {uplink.peer_as, 65100});
    }
    net.run_to_convergence();

    PolicyList policies;
    for (std::size_t i = 0; i < kPrefixes; ++i) {
      policies.push_back(std::make_shared<LoopFreedomPolicy>(churn_prefix(i)));
      policies.push_back(std::make_shared<BlackholeFreedomPolicy>(churn_prefix(i)));
    }
    DistributedVerifier verifier(net.topology(), policies);
    auto snapshot = take_instant_snapshot(net);

    VerifyCost distributed;
    auto result = verifier.verify(snapshot, &distributed);
    VerifyCost centralized = verifier.centralized_cost(snapshot);
    if (!result.clean()) {
      std::printf("unexpected violations at n=%zu!\n", n);
    }

    table.row({std::to_string(n), std::to_string(kPrefixes),
               std::to_string(centralized.messages), std::to_string(distributed.messages),
               std::to_string(centralized.max_node_work),
               std::to_string(distributed.max_node_work),
               format_duration_us(centralized.latency_us),
               format_duration_us(distributed.latency_us)});

    // §5's distributed HBG: shard the graph per router and run the
    // provenance query for the last FIB update by shipping partial paths.
    auto records = net.capture().records();
    auto hbg = HbgBuilder::build(records, RuleMatchingInference());
    DistributedHbgStore store(hbg);
    IoId last_fib = kNoIo;
    for (const IoRecord& r : records) {
      if (r.kind == IoKind::kFibUpdate) last_fib = r.id;
    }
    DistributedQueryStats stats;
    auto roots = store.root_causes(last_fib, 0.0, &stats);
    bool same = roots == hbg.root_causes(last_fib);
    if (!same) exit_code = 1;
    provenance.row({std::to_string(n), std::to_string(hbg.vertex_count()),
                    std::to_string(store.cross_edge_count()), std::to_string(stats.messages),
                    std::to_string(stats.routers_contacted), same ? "yes" : "NO"});
  }
  table.print();
  std::printf("--- distributed HBG provenance (per-router subgraphs, SS5) ---\n");
  provenance.print();

  std::printf("note: 'max-node-work' is the busiest verification node's lookup count —\n"
              "the centralized collector does everything, while distribution caps each\n"
              "node near (#prefixes x its fan-in). Latency is the critical path of\n"
              "partial-result forwarding.\n\n");

  // -------------------------------------------------------------------------
  // Part 2: sharded construction vs the single-graph build.

  std::printf("--- sharded distributed-HBG construction (SS5 feasibility) ---\n");
  std::vector<IoRecord> records = construction_trace(91, 24, 400);
  std::printf("trace: %zu records over 24 routers\n", records.size());

  const int kRuns = 3;

  double serial_ms = best_of(kRuns, [&] {
    Stopwatch watch;
    IncrementalHbgBuilder builder;
    builder.attach_store(&records);
    builder.append(records);
    return watch.ms();
  });
  // The oracle the equality gate compares against.
  IncrementalHbgBuilder oracle;
  oracle.attach_store(&records);
  oracle.append(records);

  Table construction({"shards", "build (best of 3)", "vs single graph", "cross edges",
                      "messages", "wire bytes", "enc/dec", "queries match"});
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("distributed_hbg");
  json.key("records").value(records.size());
  json.key("serial_build_ms").value(serial_ms);
  json.key("shards").begin_array();

  std::size_t divergences = 0;
  std::size_t wire_bytes8 = 0;
  std::size_t cross_edges8 = 0;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    DistributedHbgStore::Options store_options;
    store_options.num_shards = shards;
    const double build_ms = best_of(kRuns, [&] {
      DistributedHbgStore timed(store_options);
      timed.attach_store(&records);
      Stopwatch watch;
      timed.append(records);
      return watch.ms();
    });

    DistributedHbgStore store(store_options);
    store.attach_store(&records);
    store.append(records);

    // Equality gate: sampled queries must match the single graph exactly.
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < records.size(); i += 7) {
      IoId id = records[i].id;
      if (store.root_causes(id) != oracle.graph().root_causes(id)) ++mismatches;
      if (store.ancestors(id) != oracle.graph().ancestors(id)) ++mismatches;
      ++checked;
    }
    divergences += mismatches;

    const auto& cs = store.construction_stats();
    if (shards == 8) {
      wire_bytes8 = cs.wire_bytes;
      cross_edges8 = cs.cross_edges;
    }
    const double encode_ms = static_cast<double>(cs.encode_ns) / 1e6;
    const double decode_ms = static_cast<double>(cs.decode_ns) / 1e6;
    construction.row({std::to_string(shards), fmt(build_ms) + " ms",
                      fmt(serial_ms / build_ms, 2) + "x", std::to_string(cs.cross_edges),
                      std::to_string(cs.messages), std::to_string(cs.wire_bytes),
                      fmt(encode_ms) + "/" + fmt(decode_ms) + " ms",
                      mismatches == 0 ? "yes (" + std::to_string(checked) + " sampled)"
                                      : "NO (" + std::to_string(mismatches) + " diverged)"});

    json.begin_object();
    json.key("num_shards").value(shards);
    json.key("build_ms").value(build_ms);
    json.key("speedup_vs_serial").value(serial_ms / build_ms);
    json.key("cross_edges").value(cs.cross_edges);
    json.key("messages").value(cs.messages);
    json.key("frames").value(cs.frames);
    json.key("wire_bytes").value(cs.wire_bytes);
    json.key("encode_ms").value(encode_ms);
    json.key("decode_ms").value(decode_ms);
    json.key("queries_checked").value(checked);
    json.key("query_mismatches").value(mismatches);
    json.end_object();

    // §5 storage/communication accounting, printed for the 8-shard build.
    if (shards == 8) {
      Table storage({"router", "I/Os", "local edges", "cross-in edges", "inbox msgs",
                     "resident bytes"});
      std::size_t total_ios = 0, total_local = 0, total_cross = 0, total_inbox = 0,
                  total_bytes = 0;
      for (const auto& [router, rs] : store.per_router_storage()) {
        storage.row({"R" + std::to_string(router), std::to_string(rs.ios),
                     std::to_string(rs.local_edges), std::to_string(rs.cross_in_edges),
                     std::to_string(rs.inbox_messages), std::to_string(rs.storage_bytes)});
        total_ios += rs.ios;
        total_local += rs.local_edges;
        total_cross += rs.cross_in_edges;
        total_inbox += rs.inbox_messages;
        total_bytes += rs.storage_bytes;
      }
      storage.row({"total", std::to_string(total_ios), std::to_string(total_local),
                   std::to_string(total_cross), std::to_string(total_inbox),
                   std::to_string(total_bytes)});
      std::printf("--- per-router storage at 8 shards ---\n");
      storage.print();
    }
  }
  json.end_array();

  construction.print();
  std::printf("note: build times are information only — the store builds serially, and "
              "SS5's\nclaims are per-router storage and bytes on the wire, not speed.\n");

  json.key("query_divergences").value(divergences);
  if (divergences > 0) {
    std::printf("GATE FAILED: %zu sharded query answers diverged from the single graph\n",
                divergences);
    exit_code = 1;
  }

  // Wire-budget gate: the exchange must stay frugal in absolute terms —
  // no more than 32 encoded bytes per cross-shard edge discovered (the old
  // per-field struct estimate charged ~44).
  constexpr double kWireBudgetPerCrossEdge = 32.0;
  const double bytes_per_cross_edge =
      cross_edges8 > 0 ? static_cast<double>(wire_bytes8) / static_cast<double>(cross_edges8)
                       : 0.0;
  json.key("bytes_per_cross_edge_at_8_shards").value(bytes_per_cross_edge);
  json.key("wire_budget_per_cross_edge").value(kWireBudgetPerCrossEdge);
  std::printf("wire budget gate: %.2f encoded bytes per cross edge (<= %.0f required)\n",
              bytes_per_cross_edge, kWireBudgetPerCrossEdge);
  if (bytes_per_cross_edge > kWireBudgetPerCrossEdge) {
    std::printf("GATE FAILED: %.2f bytes per cross edge exceeds the %.0f-byte budget\n",
                bytes_per_cross_edge, kWireBudgetPerCrossEdge);
    exit_code = 1;
  }
  json.key("gates_passed").value(exit_code == 0);
  json.end_object();
  json.write("BENCH_distributed_hbg.json");
  std::printf("wrote BENCH_distributed_hbg.json\n");
  return exit_code;
}
