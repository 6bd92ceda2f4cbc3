// Differential harness for sharded distributed-HBG construction (§5).
//
// The contract under test: a DistributedHbgStore that builds its graph
// *sharded* — per-shard rule matching over each shard's own tap stream,
// cross-router send→recv pairs exchanged as explicit ShardMessages — must
// answer every provenance query byte-identically to the single global
// HappensBeforeGraph built from the same capture stream, at any shard
// count and any append chunking. Randomized churn traces (seeded topology
// + workload, control-plane faults off and on, and the fault-injected
// capture the guarded fault tests replay) drive the comparison.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <vector>

#include "hbguard/fault/injector.hpp"
#include "hbguard/fault/plan.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/provenance/distributed_hbg.hpp"
#include "hbguard/sim/workload.hpp"

namespace hbguard {
namespace {

/// Deterministic churn trace over a seeded random topology. With
/// `control_faults` the same seeded link flaps / router crashes that the
/// guarded fault tests replay are armed (capture stays pristine — the store
/// consumes whatever the hub recorded, faulty or not).
std::vector<IoRecord> churn_trace(std::uint64_t seed, std::size_t routers,
                                  std::size_t churn_events, bool control_faults) {
  Rng topo_rng(seed);
  Topology topology = make_waxman_topology(routers, topo_rng);
  NetworkOptions options;
  options.seed = seed;
  auto generated = make_ibgp_network(topology, 2, options);
  Network& net = *generated.network;
  net.run_to_convergence();

  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.event_count = churn_events;
  churn_options.config_change_probability = 0;
  churn_options.seed = seed + 1;
  ChurnWorkload churn(generated, churn_options);

  std::unique_ptr<FaultInjector> injector;
  if (control_faults) {
    FaultPlanOptions plan_options;
    plan_options.seed = seed + 2;
    FaultPlan plan = FaultPlan::random(topology, plan_options);
    FaultInjectorOptions injector_options;
    injector_options.install_channel = false;
    injector_options.enable_health = false;
    injector = std::make_unique<FaultInjector>(net, plan.control_only(), injector_options);
    injector->arm();
  }

  net.run_for(3'600'000);
  net.run_to_convergence();
  return std::vector<IoRecord>(net.capture().records().begin(),
                               net.capture().records().end());
}

/// The capture of run_guarded's faulty run (tests/fixtures.hpp: topology
/// and churn seeds 13 and 14, fault plan seed 17, the full plan with the
/// delivery channel and stream health on), recorded without a Guard: the
/// hub's grace windows are ticked at each of that run's scan boundaries, so
/// abandoned buffers land where a scan would have landed them.
std::vector<IoRecord> guarded_fault_trace() {
  Rng plan_rng(13);
  FaultPlanOptions plan_options;
  plan_options.seed = 17;
  FaultPlan plan = FaultPlan::random(make_waxman_topology(8, plan_rng), plan_options);

  Rng topo_rng(13);
  NetworkOptions options;
  options.seed = 13;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
  Network& net = *generated.network;
  net.run_to_convergence();

  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.event_count = 40;
  churn_options.config_change_probability = 0;
  churn_options.seed = 14;
  ChurnWorkload churn(generated, churn_options);

  FaultInjectorOptions injector_options;
  injector_options.resync_delay_us = 120'000;
  FaultInjector injector(net, plan, injector_options);
  injector.arm();

  for (int i = 0; i < 34; ++i) {
    net.run_for(100'000);
    net.capture().tick_health(net.sim().now());
  }
  net.run_to_convergence();
  for (int i = 0; i < 3; ++i) {
    net.run_for(200'000);
    net.capture().tick_health(net.sim().now());
  }
  return std::vector<IoRecord>(net.capture().records().begin(),
                               net.capture().records().end());
}

/// Streaming-build a store over `records` in fixed-size chunks.
DistributedHbgStore build_store(const std::vector<IoRecord>& records, std::size_t num_shards,
                                std::size_t chunk = 97) {
  DistributedHbgStore::Options options;
  options.num_shards = num_shards;
  DistributedHbgStore store(options);
  store.attach_store(&records);
  std::span<const IoRecord> all(records);
  for (std::size_t i = 0; i < all.size(); i += chunk) {
    store.append(all.subspan(i, std::min(chunk, all.size() - i)));
  }
  return store;
}

/// Assert every provenance query over `store` matches the oracle graph,
/// byte for byte. Returns the aggregated distributed query stats so callers
/// can assert communication actually happened (or didn't).
DistributedQueryStats expect_queries_match(const DistributedHbgStore& store,
                                           const HappensBeforeGraph& oracle,
                                           const std::vector<IoRecord>& records,
                                           const std::string& label) {
  DistributedQueryStats total;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const IoId id = records[i].id;
    // Stride the full cross-product queries; every id still gets the cheap
    // record lookup so ownership mapping is covered completely.
    const IoRecord* resolved = store.record(id);
    if (resolved == nullptr) {
      ADD_FAILURE() << label << " lost record " << id;
      continue;
    }
    EXPECT_EQ(resolved->id, id);
    if (i % 5 != 0) continue;

    DistributedQueryStats stats;
    std::vector<IoId> roots = store.root_causes(id, 0.0, &stats);
    total += stats;
    EXPECT_EQ(roots, oracle.root_causes(id)) << label << " root_causes(" << id << ")";
    EXPECT_EQ(store.ancestors(id), oracle.ancestors(id)) << label << " ancestors(" << id << ")";
    for (IoId root : roots) {
      EXPECT_EQ(store.path_from(root, id), oracle.path_from(root, id))
          << label << " path_from(" << root << ", " << id << ")";
    }
    // Confidence filtering must shard identically too (rule edges carry
    // varied confidences; 0.9 prunes some of them).
    EXPECT_EQ(store.root_causes(id, 0.9), oracle.root_causes(id, 0.9))
        << label << " root_causes(" << id << ", 0.9)";
  }
  return total;
}

TEST(DistributedHbg, ShardedConstructionMatchesOracleAcrossShardCounts) {
  std::vector<IoRecord> records = churn_trace(21, 8, 40, /*control_faults=*/false);
  ASSERT_GT(records.size(), 100u);

  IncrementalHbgBuilder oracle;
  oracle.attach_store(&records);
  oracle.append(records);

  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    DistributedHbgStore store = build_store(records, shards);
    EXPECT_EQ(store.shard_count(), shards);
    // Edge accounting: local shard edges plus cross-shard pairs must tile
    // the oracle's edge set exactly.
    std::size_t local_edges = 0;
    std::set<RouterId> seen_routers;
    for (const IoRecord& r : records) seen_routers.insert(r.router);
    for (RouterId router : seen_routers) {
      ASSERT_NE(store.subgraph(router), nullptr);
    }
    for (const auto& [router, storage] : store.per_router_storage()) {
      local_edges += storage.local_edges;
    }
    EXPECT_EQ(local_edges + store.cross_edge_count(), oracle.graph().edge_count());

    DistributedQueryStats stats = expect_queries_match(store, oracle.graph(), records, "streaming");
    if (shards == 1) {
      EXPECT_EQ(store.construction_stats().messages, 0u);
      EXPECT_EQ(store.cross_edge_count(), 0u);
      EXPECT_EQ(stats.messages, 0u);
    } else if (store.cross_edge_count() > 0) {
      EXPECT_GT(stats.messages, 0u) << "cross edges exist but no query crossed a shard";
    }
  }
}

TEST(DistributedHbg, ShardedConstructionMatchesOracleUnderControlFaults) {
  // Crashes and flaps make the trace gnarlier: session resets, withdraw
  // storms, re-convergence. The sharding argument must not care.
  std::vector<IoRecord> records = churn_trace(22, 8, 60, /*control_faults=*/true);
  ASSERT_GT(records.size(), 100u);

  IncrementalHbgBuilder oracle;
  oracle.attach_store(&records);
  oracle.append(records);

  for (std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    DistributedHbgStore store = build_store(records, shards);
    expect_queries_match(store, oracle.graph(), records, "faulted");
  }
}

TEST(DistributedHbg, PerRouterShardingMatchesOracle) {
  // num_shards = 0: one shard per router, the paper's §5 deployment shape.
  std::vector<IoRecord> records = churn_trace(23, 6, 30, /*control_faults=*/false);
  IncrementalHbgBuilder oracle;
  oracle.attach_store(&records);
  oracle.append(records);

  DistributedHbgStore store = build_store(records, 0);
  std::set<RouterId> routers;
  for (const IoRecord& r : records) routers.insert(r.router);
  EXPECT_EQ(store.shard_count(), routers.size());
  expect_queries_match(store, oracle.graph(), records, "per-router");
}

TEST(DistributedHbg, ChunkingDoesNotChangeAnswers) {
  // The same trace streamed in tiny, medium, and single-batch appends must
  // produce identical stores (channel FIFO state persists across appends).
  // Only the framing may differ: partial outboxes flush at the end of every
  // append, so smaller chunks ship more, smaller frames.
  std::vector<IoRecord> records = churn_trace(24, 8, 40, /*control_faults=*/false);
  IncrementalHbgBuilder oracle;
  oracle.attach_store(&records);
  oracle.append(records);

  DistributedHbgStore whole = build_store(records, 4, records.size());
  const auto& expected = whole.construction_stats();
  EXPECT_GT(expected.cross_edges, 0u);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{13}, records.size()}) {
    SCOPED_TRACE(testing::Message() << "chunk=" << chunk);
    DistributedHbgStore store = build_store(records, 4, chunk);
    expect_queries_match(store, oracle.graph(), records, "chunked");
    const auto& stats = store.construction_stats();
    EXPECT_EQ(stats.records_ingested, expected.records_ingested);
    EXPECT_EQ(stats.messages, expected.messages);
    EXPECT_EQ(stats.cross_edges, expected.cross_edges);
  }
}

TEST(DistributedHbg, AdoptionModeMatchesStreamingStore) {
  // Sharding an already-built global graph (adoption) must answer exactly
  // like the store that built its shards itself.
  std::vector<IoRecord> records = churn_trace(25, 8, 40, /*control_faults=*/false);
  IncrementalHbgBuilder oracle;
  oracle.attach_store(&records);
  oracle.append(records);

  DistributedHbgStore::Options options;
  options.num_shards = 4;
  DistributedHbgStore adopted(oracle.graph(), options);
  EXPECT_EQ(adopted.shard_count(), 4u);
  expect_queries_match(adopted, oracle.graph(), records, "adopted");

  DistributedHbgStore streamed = build_store(records, 4);
  EXPECT_EQ(adopted.cross_edge_count(), streamed.cross_edge_count());
}

TEST(DistributedHbg, ConstructionAccountingIsExact) {
  std::vector<IoRecord> records = churn_trace(26, 8, 40, /*control_faults=*/false);
  DistributedHbgStore store = build_store(records, 8);

  const auto& stats = store.construction_stats();
  EXPECT_EQ(stats.records_ingested, records.size());
  EXPECT_EQ(stats.cross_edges, store.cross_edge_count());
  EXPECT_GT(stats.messages, 0u) << "an 8-shard build of a churn trace must exchange sends";
  EXPECT_GT(stats.frames, 0u);
  EXPECT_LE(stats.frames, stats.messages);

  // Every counted message is sitting in exactly one inbox, and wire_bytes
  // is the actual encoded size of the frames that carried them: what the
  // senders measured encoding must equal what the receivers measured
  // arriving.
  std::size_t inboxed = 0;
  std::size_t inbox_bytes = 0;
  std::size_t struct_estimate = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    inboxed += store.inbox(s).size();
    inbox_bytes += store.inbox_wire_bytes(s);
    for (const ShardMessage& m : store.inbox(s)) {
      struct_estimate += sizeof(IoId) + 2 * sizeof(RouterId) + sizeof(SimTime) +
                         m.channel.size();
    }
  }
  EXPECT_EQ(inboxed, stats.messages);
  EXPECT_EQ(inbox_bytes, stats.wire_bytes);

  // The codec earns its keep: the real encoded frames must come in strictly
  // below the hand-summed per-field struct estimate the store used to
  // report for the same messages.
  EXPECT_LT(stats.wire_bytes, struct_estimate);

  // Per-router storage tiles the vertex set and includes the inbox bytes.
  std::size_t ios = 0;
  std::size_t storage_bytes = 0;
  for (const auto& [router, storage] : store.per_router_storage()) {
    ios += storage.ios;
    storage_bytes += storage.storage_bytes;
    EXPECT_GT(storage.storage_bytes, 0u) << "router " << router;
  }
  EXPECT_EQ(ios, records.size());
  EXPECT_GE(storage_bytes, inbox_bytes);
}

TEST(DistributedHbg, ShardedConstructionMatchesOracleUnderCaptureFaults) {
  // Capture faults leave gaps, duplicates and late records in the stream
  // the shards split; every shard count and chunking must still answer
  // like the single graph.
  std::vector<IoRecord> records = guarded_fault_trace();
  ASSERT_GT(records.size(), 100u);

  IncrementalHbgBuilder oracle;
  oracle.attach_store(&records);
  oracle.append(records);

  for (std::size_t shards : {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{97}, records.size()}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards << " chunk=" << chunk);
      DistributedHbgStore store = build_store(records, shards, chunk);
      expect_queries_match(store, oracle.graph(), records, "capture faults");
    }
  }
}

}  // namespace
}  // namespace hbguard
