// Compact HBG parity (ISSUE 3 tentpole).
//
// The contract under test: the CSR/index-based HappensBeforeGraph answers
// every query — closures, root causes, shortest paths, iteration order —
// identically to the legacy std::map-based representation (kept here as
// the oracle), regardless of insertion order, duplicate edges, append-side
// buffer state, or when compaction fires; and a Guard running on the
// compact graph emits byte-identical GuardReports at 1/2/8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "hbguard/core/guard.hpp"
#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/incremental.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/util/rng.hpp"

namespace hbguard {
namespace {

// ---------------------------------------------------------------------------
// Legacy map-based reference implementation (the pre-compaction graph code,
// verbatim semantics: node storage in std::map, per-query std::set closures).

class ReferenceHbg {
 public:
  void add_vertex(IoRecord record) { vertices_.insert_or_assign(record.id, std::move(record)); }

  void add_edge(const HbgEdge& edge) {
    if (!vertices_.contains(edge.from) || !vertices_.contains(edge.to)) {
      throw std::invalid_argument("HBG edge references unknown vertex");
    }
    if (edge.from == edge.to) return;
    auto& out = out_[edge.from];
    for (HbgEdge& existing : out) {
      if (existing.to == edge.to) {
        if (edge.confidence > existing.confidence) {
          existing = edge;
          for (HbgEdge& in : in_[edge.to]) {
            if (in.from == edge.from) in = edge;
          }
        }
        return;
      }
    }
    out.push_back(edge);
    in_[edge.to].push_back(edge);
    ++edge_count_;
  }

  std::size_t vertex_count() const { return vertices_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  std::vector<HbgEdge> in_edges(IoId id, double min_confidence = 0.0) const {
    return filter(in_, id, min_confidence);
  }
  std::vector<HbgEdge> out_edges(IoId id, double min_confidence = 0.0) const {
    return filter(out_, id, min_confidence);
  }

  std::set<IoId> ancestors(IoId id, double min_confidence = 0.0) const {
    return closure(id, min_confidence, in_, /*follow_from=*/true);
  }
  std::set<IoId> descendants(IoId id, double min_confidence = 0.0) const {
    return closure(id, min_confidence, out_, /*follow_from=*/false);
  }

  std::vector<IoId> root_causes(IoId id, double min_confidence = 0.0) const {
    if (!vertices_.contains(id)) return {};
    std::set<IoId> up = ancestors(id, min_confidence);
    std::vector<IoId> roots;
    if (up.empty()) {
      if (in_edges(id, min_confidence).empty()) roots.push_back(id);
      return roots;
    }
    for (IoId candidate : up) {
      if (in_edges(candidate, min_confidence).empty()) roots.push_back(candidate);
    }
    std::sort(roots.begin(), roots.end());
    return roots;
  }

  /// Canonical shortest path (the HappensBeforeGraph contract): BFS hop
  /// distances, then backtrack choosing the smallest-id predecessor on a
  /// shortest path — depends only on the edge set, never insertion order.
  std::vector<IoId> path_from(IoId root, IoId id, double min_confidence = 0.0) const {
    if (root == id) return {root};
    std::map<IoId, std::size_t> dist;
    dist[root] = 0;
    std::vector<IoId> queue{root};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      IoId current = queue[head];
      auto it = out_.find(current);
      if (it == out_.end()) continue;
      for (const HbgEdge& edge : it->second) {
        if (edge.confidence < min_confidence) continue;
        if (dist.emplace(edge.to, dist.at(current) + 1).second) queue.push_back(edge.to);
      }
    }
    if (!dist.contains(id)) return {};
    std::vector<IoId> path{id};
    IoId walk = id;
    while (walk != root) {
      std::size_t want = dist.at(walk) - 1;
      IoId best = kNoIo;
      for (const HbgEdge& edge : in_edges(walk, min_confidence)) {
        auto it = dist.find(edge.from);
        if (it == dist.end() || it->second != want) continue;
        if (best == kNoIo || edge.from < best) best = edge.from;
      }
      walk = best;
      path.push_back(walk);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  std::vector<IoId> all_leaves(double min_confidence = 0.0) const {
    std::vector<IoId> leaves;
    for (const auto& [id, record] : vertices_) {
      if (in_edges(id, min_confidence).empty()) leaves.push_back(id);
    }
    return leaves;
  }

  /// Edge list in the legacy iteration order (ascending from-id, insertion
  /// order per vertex) — the order renderers depend on.
  std::vector<HbgEdge> edge_list() const {
    std::vector<HbgEdge> out;
    for (const auto& [from, edges] : out_) {
      out.insert(out.end(), edges.begin(), edges.end());
    }
    return out;
  }

  const std::map<IoId, IoRecord>& vertices() const { return vertices_; }

 private:
  static std::vector<HbgEdge> filter(const std::map<IoId, std::vector<HbgEdge>>& adj, IoId id,
                                     double min_confidence) {
    std::vector<HbgEdge> result;
    auto it = adj.find(id);
    if (it == adj.end()) return result;
    for (const HbgEdge& edge : it->second) {
      if (edge.confidence >= min_confidence) result.push_back(edge);
    }
    return result;
  }

  std::set<IoId> closure(IoId id, double min_confidence,
                         const std::map<IoId, std::vector<HbgEdge>>& adj,
                         bool follow_from) const {
    std::set<IoId> seen;
    std::vector<IoId> queue{id};
    while (!queue.empty()) {
      IoId current = queue.back();
      queue.pop_back();
      auto it = adj.find(current);
      if (it == adj.end()) continue;
      for (const HbgEdge& edge : it->second) {
        if (edge.confidence < min_confidence) continue;
        IoId next = follow_from ? edge.from : edge.to;
        if (seen.insert(next).second) queue.push_back(next);
      }
    }
    seen.erase(id);
    return seen;
  }

  std::map<IoId, IoRecord> vertices_;
  std::map<IoId, std::vector<HbgEdge>> out_;
  std::map<IoId, std::vector<HbgEdge>> in_;
  std::size_t edge_count_ = 0;
};

// ---------------------------------------------------------------------------
// Helpers.

std::vector<IoId> as_vector(const std::set<IoId>& s) { return {s.begin(), s.end()}; }

std::string edge_digest(const std::vector<HbgEdge>& edges) {
  std::ostringstream out;
  for (const HbgEdge& e : edges) {
    out << e.from << ">" << e.to << "@" << e.confidence << ":" << e.origin << "\n";
  }
  return out.str();
}

/// Assert every query agrees between the oracle and the compact graph for
/// the given ids and confidence thresholds.
void expect_parity(const ReferenceHbg& oracle, const HappensBeforeGraph& compact,
                   const std::vector<IoId>& probe_ids, const std::vector<double>& thresholds) {
  ASSERT_EQ(oracle.vertex_count(), compact.vertex_count());
  ASSERT_EQ(oracle.edge_count(), compact.edge_count());

  // Iteration order: ascending id vertices, legacy-map-order edges.
  std::vector<IoId> oracle_vertex_order;
  for (const auto& [id, record] : oracle.vertices()) oracle_vertex_order.push_back(id);
  std::vector<IoId> compact_vertex_order;
  compact.for_each_vertex(
      [&](const IoRecord& record) { compact_vertex_order.push_back(record.id); });
  ASSERT_EQ(oracle_vertex_order, compact_vertex_order);

  std::vector<HbgEdge> compact_edges;
  compact.for_each_edge([&](const HbgEdge& edge) { compact_edges.push_back(edge); });
  ASSERT_EQ(edge_digest(oracle.edge_list()), edge_digest(compact_edges));

  for (double conf : thresholds) {
    ASSERT_EQ(oracle.all_leaves(conf), compact.all_leaves(conf)) << "conf=" << conf;
    for (IoId id : probe_ids) {
      ASSERT_EQ(as_vector(oracle.ancestors(id, conf)), compact.ancestors(id, conf))
          << "ancestors(" << id << ", " << conf << ")";
      ASSERT_EQ(as_vector(oracle.descendants(id, conf)), compact.descendants(id, conf))
          << "descendants(" << id << ", " << conf << ")";
      ASSERT_EQ(oracle.root_causes(id, conf), compact.root_causes(id, conf))
          << "root_causes(" << id << ", " << conf << ")";
      ASSERT_EQ(edge_digest(oracle.in_edges(id, conf)), edge_digest(compact.in_edges(id, conf)))
          << "in_edges(" << id << ", " << conf << ")";
      ASSERT_EQ(edge_digest(oracle.out_edges(id, conf)),
                edge_digest(compact.out_edges(id, conf)))
          << "out_edges(" << id << ", " << conf << ")";
      for (IoId root : oracle.root_causes(id, conf)) {
        ASSERT_EQ(oracle.path_from(root, id, conf), compact.path_from(root, id, conf))
            << "path_from(" << root << ", " << id << ", " << conf << ")";
      }
    }
  }
}

IoRecord make_record(IoId id, RouterId router) {
  IoRecord r;
  r.id = id;
  r.router = router;
  r.kind = IoKind::kFibUpdate;
  return r;
}

// ---------------------------------------------------------------------------
// Random-DAG property test: random insertion orders (monotone and shuffled),
// duplicate edges with confidence upgrades, self-edges, several origins —
// checked against the oracle before and after explicit compaction.

TEST(HbgCompact, RandomGraphParityAgainstMapOracle) {
  const char* origins[] = {"a", "b", "c", "rib->fib", "send->recv"};
  for (std::uint64_t seed : {1u, 7u, 23u, 99u}) {
    Rng rng(seed);
    std::size_t n = static_cast<std::size_t>(rng.uniform_int(20, 120));

    std::vector<IoId> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = i + 1;
    bool shuffled = seed % 2 == 1;
    if (shuffled) rng.shuffle(ids);  // exercise the non-monotone id-order path

    ReferenceHbg oracle;
    HappensBeforeGraph compact;
    for (IoId id : ids) {
      IoRecord record = make_record(id, static_cast<RouterId>(id % 4));
      oracle.add_vertex(record);
      compact.add_vertex(record);
    }

    std::size_t edge_attempts = n * 4;
    for (std::size_t i = 0; i < edge_attempts; ++i) {
      IoId from = static_cast<IoId>(rng.uniform_int(1, static_cast<std::int64_t>(n)));
      IoId to = static_cast<IoId>(rng.uniform_int(1, static_cast<std::int64_t>(n)));
      if (from > to) std::swap(from, to);  // keep it a DAG (edges go up in id)
      double confidence = rng.uniform_int(1, 10) / 10.0;
      HbgEdge edge{from, to, confidence, origins[rng.uniform_int(0, 4)]};
      oracle.add_edge(edge);  // self-edges ignored, duplicates keep max conf
      compact.add_edge(edge);
    }

    std::vector<IoId> probes;
    for (IoId id = 1; id <= n; id += std::max<std::size_t>(1, n / 17)) probes.push_back(id);
    probes.push_back(n);
    probes.push_back(n + 50);  // unknown vertex: every query must return empty
    std::vector<double> thresholds{0.0, 0.35, 0.8, 1.0};

    expect_parity(oracle, compact, probes, thresholds);
    SCOPED_TRACE("after compact(), pending was " +
                 std::to_string(compact.pending_edge_count()));
    compact.compact();
    EXPECT_EQ(compact.pending_edge_count(), 0u);
    expect_parity(oracle, compact, probes, thresholds);
  }
}

// ---------------------------------------------------------------------------
// Amortized compaction parity: the same random-DAG property, but with a
// per-append half-edge budget so re-packs run as incremental passes that
// interleave with appends, duplicate-confidence upgrades (patched into the
// in-flight copy) and new vertices. Queries must agree with the oracle at
// every checkpoint, including mid-pass, and after draining via compact_step
// or discarding via eager compact().

TEST(HbgCompact, AmortizedCompactionParityAgainstMapOracle) {
  const char* origins[] = {"a", "b", "c", "rib->fib", "send->recv"};
  for (std::size_t budget : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    Rng rng(311 + budget);
    // Big enough that pending crosses the compaction trigger several times.
    const std::size_t n = 700;

    ReferenceHbg oracle;
    HappensBeforeGraph compact;
    compact.set_compact_budget(budget);
    for (IoId id = 1; id <= n; ++id) {
      IoRecord record = make_record(id, static_cast<RouterId>(id % 4));
      oracle.add_vertex(record);
      compact.add_vertex(record);
    }

    std::vector<IoId> probes;
    for (IoId id = 1; id <= n; id += n / 13) probes.push_back(id);
    probes.push_back(n);
    std::vector<double> thresholds{0.0, 0.8};

    bool saw_inflight = false;
    std::size_t edge_attempts = n * 5;
    for (std::size_t i = 0; i < edge_attempts; ++i) {
      IoId from = static_cast<IoId>(rng.uniform_int(1, static_cast<std::int64_t>(n)));
      IoId to = static_cast<IoId>(rng.uniform_int(1, static_cast<std::int64_t>(n)));
      if (from > to) std::swap(from, to);
      double confidence = rng.uniform_int(1, 10) / 10.0;
      HbgEdge edge{from, to, confidence, origins[rng.uniform_int(0, 4)]};
      oracle.add_edge(edge);
      compact.add_edge(edge);
      saw_inflight |= compact.compaction_in_progress();
      if (i % (edge_attempts / 4) == edge_attempts / 8) {
        SCOPED_TRACE("budget=" + std::to_string(budget) + " checkpoint @" + std::to_string(i) +
                     (compact.compaction_in_progress() ? " (mid-pass)" : ""));
        expect_parity(oracle, compact, probes, thresholds);
      }
    }
    EXPECT_TRUE(saw_inflight) << "budget=" << budget
                              << ": trigger never fired — grow the workload";
    expect_parity(oracle, compact, probes, thresholds);

    // Vertices inserted mid-pass (past the freeze point) must keep their
    // edges across the swap.
    if (!compact.compaction_in_progress()) {
      // Force a pass so the next checks genuinely run mid-flight.
      for (IoId id = 1; id + 1 <= n && !compact.compaction_in_progress(); ++id) {
        HbgEdge edge{id, id + 1, 1.0, "late"};
        oracle.add_edge(edge);
        compact.add_edge(edge);
      }
    }
    if (compact.compaction_in_progress()) {
      IoId fresh = n + 1;
      IoRecord record = make_record(fresh, 0);
      oracle.add_vertex(record);
      compact.add_vertex(record);
      HbgEdge late{1, fresh, 0.5, "late-vertex"};
      oracle.add_edge(late);
      compact.add_edge(late);
      probes.push_back(fresh);

      // Idle-time drain finishes the pass without further appends.
      while (compact.compaction_in_progress()) compact.compact_step(64);
      expect_parity(oracle, compact, probes, thresholds);
    }

    // Eager compact() discards any in-progress pass safely.
    compact.set_compact_budget(1);
    for (IoId id = 1; id + 2 <= n && !compact.compaction_in_progress(); ++id) {
      HbgEdge edge{id, id + 2, 1.0, "discard"};
      oracle.add_edge(edge);
      compact.add_edge(edge);
    }
    compact.compact();
    EXPECT_FALSE(compact.compaction_in_progress());
    EXPECT_EQ(compact.pending_edge_count(), 0u);
    expect_parity(oracle, compact, probes, thresholds);
  }
}

// ---------------------------------------------------------------------------
// Simulator churn-trace parity: inferred edges from a real capture stream,
// fed incrementally (append-side buffer + shared record store) vs the
// oracle fed the same batch edge list.

TEST(HbgCompact, ChurnTraceParityIncrementalVsOracle) {
  Rng topo_rng(51);
  NetworkOptions options;
  options.seed = 51;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.event_count = 30;
  churn_options.seed = 52;
  ChurnWorkload churn(generated, churn_options);
  ASSERT_GT(churn.scheduled_events(), 0u);

  // Incremental build in scan-sized slices over the shared capture store.
  Network& net = *generated.network;
  IncrementalHbgBuilder builder;
  builder.attach_store(&net.capture().records());
  std::size_t cursor = 0;
  for (std::size_t step = 0; step < 30; ++step) {
    net.run_for(100'000);
    builder.append(net.capture().records_since(cursor));
    cursor = net.capture().records().size();
  }
  const HappensBeforeGraph& compact = builder.graph();

  // The oracle replays the same records through a fresh engine (the exact
  // edge stream the incremental builder saw).
  const std::vector<IoRecord>& records = net.capture().records();
  ReferenceHbg oracle;
  for (const IoRecord& r : records) oracle.add_vertex(r);
  RuleMatchEngine engine;
  std::vector<InferredHbr> edges;
  for (const IoRecord& r : records) {
    edges.clear();
    engine.add(r, edges);
    for (const InferredHbr& e : edges) oracle.add_edge({e.from, e.to, e.confidence, e.rule});
  }

  std::vector<IoId> probes;
  for (const IoRecord& r : records) {
    if (r.kind == IoKind::kFibUpdate) probes.push_back(r.id);
  }
  ASSERT_FALSE(probes.empty());
  if (probes.size() > 60) {  // cap the O(probes × queries) oracle cost
    std::vector<IoId> sampled;
    for (std::size_t i = 0; i < probes.size(); i += probes.size() / 60) {
      sampled.push_back(probes[i]);
    }
    probes = std::move(sampled);
  }
  expect_parity(oracle, compact, probes, {0.0, 0.9});
}

// ---------------------------------------------------------------------------
// End-to-end: GuardReport digests are identical across 1/2/8 threads (the
// parallel rule matcher and the shared-store graph must not perturb any
// downstream stage), extending the PR 2 parity harness.

std::string run_guard_on_churn(RepairMode mode, unsigned threads, std::uint64_t seed,
                               std::size_t compact_budget = 0) {
  Rng topo_rng(seed);
  NetworkOptions options;
  options.seed = seed;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, options);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.event_count = 16;
  churn_options.config_change_probability = 0.2;
  churn_options.seed = seed + 1;
  ChurnWorkload churn(generated, churn_options);

  PolicyList policies;
  for (std::size_t i = 0; i < churn_options.prefix_count; ++i) {
    Prefix p = churn_prefix(i);
    policies.push_back(std::make_shared<LoopFreedomPolicy>(p));
    policies.push_back(std::make_shared<BlackholeFreedomPolicy>(p));
    policies.push_back(std::make_shared<ReachabilityPolicy>(0, p));
  }
  GuardOptions guard_options;
  guard_options.repair = mode;
  guard_options.num_threads = threads;
  guard_options.compact_budget = compact_budget;
  Guard guard(*generated.network, policies, guard_options);
  return guard.run().digest();
}

TEST(HbgCompact, GuardReportParityAcrossThreads) {
  for (RepairMode mode : {RepairMode::kReport, RepairMode::kRevert}) {
    std::string baseline = run_guard_on_churn(mode, 1, 61);
    ASSERT_FALSE(baseline.empty());
    for (unsigned threads : {2u, 8u}) {
      EXPECT_EQ(baseline, run_guard_on_churn(mode, threads, 61))
          << "mode=" << to_string(mode) << " threads=" << threads;
    }
  }
}

// Amortized compaction (GuardOptions::compact_budget) must not perturb the
// report at any budget or thread count: the re-pack preserves per-vertex
// insertion order, so every downstream stage sees identical edge streams.
TEST(HbgCompact, GuardReportParityWithAmortizedCompaction) {
  std::string baseline = run_guard_on_churn(RepairMode::kRevert, 1, 61);
  ASSERT_FALSE(baseline.empty());
  for (std::size_t budget : {std::size_t{4}, std::size_t{64}}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(baseline, run_guard_on_churn(RepairMode::kRevert, threads, 61, budget))
          << "budget=" << budget << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace hbguard
