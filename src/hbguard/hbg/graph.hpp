// The happens-before graph (HBG, §4.3).
//
// "Vertices correspond to specific control plane I/Os, and directed edges
// represent HBRs." The graph supports the queries the rest of the system
// needs: parents/children, confidence-filtered ancestor closures (for
// provenance), leaf roots (root causes), and descendant closures (for
// blast-radius estimates during repair). The distributed mode of §5 keeps
// one graph per shard of routers (provenance/distributed_hbg.hpp).
//
// Storage is index-based, not node-based. IoIds are 1-based capture ids, so
// they map to contiguous vertex indices through a flat id→index table, and
// adjacency lives in CSR-style arrays:
//
//   - Each direction keeps a compacted CSR segment (offsets + half-edge
//     array) plus a small append-side buffer of linked half-edges. add_edge
//     appends to the buffer; when the buffer outgrows a fraction of the
//     compacted segment the graph re-packs both into fresh CSR arrays
//     (amortized O(E) over any insertion sequence). Per-vertex insertion
//     order is preserved across compactions, so iteration order — and with
//     it every traversal and render — is independent of when compaction
//     happened.
//   - Vertices hold only the IoId plus an index into a record store: either
//     the shared CaptureHub record vector (attach_record_store +
//     add_vertex_ref; no copies, the hub's append-only vector is the single
//     owner) or this graph's own owned-record array (add_vertex). The two
//     can mix per vertex.
//   - Per-edge origin strings ("recv-advert->rib", "truth", ...) are
//     interned into a small pool; a half-edge is 16 bytes.
//
// Traversals reuse epoch-stamped visited/parent arrays and a scratch BFS
// queue instead of allocating per query, and return sorted vectors. The
// scratch state makes concurrent traversals on the SAME graph instance
// unsafe; every pipeline stage queries the graph from one thread (the
// parallel stages shard over snapshots/ECs, not the HBG).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "hbguard/capture/io_record.hpp"
#include "hbguard/hbr/inference.hpp"

namespace hbguard {

struct HbgEdge {
  IoId from = kNoIo;
  IoId to = kNoIo;
  double confidence = 1.0;
  std::string origin;  // rule/pattern name, or "truth"
};

/// Lightweight non-owning edge as handed to for_each_* callbacks; `origin`
/// points into the graph's intern pool and is valid for the callback's
/// duration only.
struct HbgEdgeView {
  IoId from = kNoIo;
  IoId to = kNoIo;
  double confidence = 1.0;
  std::string_view origin;
};

class HappensBeforeGraph {
 public:
  using VertexIndex = std::uint32_t;
  static constexpr VertexIndex kNoVertexIndex = 0xFFFFFFFFu;

  /// Share a record store (typically &CaptureHub::records()) instead of
  /// copying records into the graph. The store must outlive the graph and
  /// may only grow (indices stay valid across vector reallocation). Must be
  /// called before the first add_vertex_ref.
  void attach_record_store(const std::vector<IoRecord>* store) { external_store_ = store; }
  const std::vector<IoRecord>* record_store() const { return external_store_; }

  /// Add a vertex that references `(*record_store())[store_index]` instead
  /// of holding a copy.
  void add_vertex_ref(IoId id, std::uint32_t store_index);
  /// Add a vertex holding an owned copy of `record`.
  void add_vertex(IoRecord record);
  /// Both endpoints must already be vertices; duplicate (from,to) pairs keep
  /// the higher-confidence edge.
  void add_edge(const HbgEdge& edge) {
    add_edge(edge.from, edge.to, edge.confidence, edge.origin);
  }
  void add_edge(IoId from, IoId to, double confidence, std::string_view origin);

  bool has_vertex(IoId id) const { return index_of(id) != kNoVertexIndex; }
  const IoRecord* record(IoId id) const;

  std::size_t vertex_count() const { return vertices_.size(); }
  std::size_t edge_count() const { return edge_total_; }

  /// Immediate predecessors/successors with confidence >= min_confidence,
  /// materialized (allocates; prefer the for_each_* overloads on hot paths).
  std::vector<HbgEdge> in_edges(IoId id, double min_confidence = 0.0) const;
  std::vector<HbgEdge> out_edges(IoId id, double min_confidence = 0.0) const;

  /// Allocation-free edge iteration. `fn` takes `const HbgEdgeView&`; a
  /// callback returning bool stops the scan when it returns true.
  template <typename Fn>
  void for_each_in_edge(IoId id, double min_confidence, Fn&& fn) const {
    VertexIndex v = index_of(id);
    if (v == kNoVertexIndex) return;
    scan_adjacency(in_, v, [&](const HalfEdge& half) {
      if (half.confidence < min_confidence) return false;
      return invoke_edge_fn(fn, make_view(half.other, v, half));
    });
  }
  template <typename Fn>
  void for_each_out_edge(IoId id, double min_confidence, Fn&& fn) const {
    VertexIndex v = index_of(id);
    if (v == kNoVertexIndex) return;
    scan_adjacency(out_, v, [&](const HalfEdge& half) {
      if (half.confidence < min_confidence) return false;
      return invoke_edge_fn(fn, make_view(v, half.other, half));
    });
  }

  /// True when `id` has at least one in-edge at or above `min_confidence` —
  /// the root/leaf test, without materializing the edge list.
  bool has_in_edge(IoId id, double min_confidence = 0.0) const;

  /// Transitive closure of predecessors (excludes `id` itself), ascending.
  std::vector<IoId> ancestors(IoId id, double min_confidence = 0.0) const;
  /// Transitive closure of successors (excludes `id` itself), ascending.
  std::vector<IoId> descendants(IoId id, double min_confidence = 0.0) const;

  /// Ancestors of `id` that themselves have no predecessors — the root
  /// causes in §6's sense. If `id` itself has no predecessors it is its own
  /// root.
  std::vector<IoId> root_causes(IoId id, double min_confidence = 0.0) const;

  /// One shortest path (in hops) from `root` to `id` following edges
  /// forward; empty if unreachable. Used for fault-chain reports (Fig. 4).
  /// Canonical: among equal-length paths the one whose predecessors have
  /// the smallest ids wins, so the answer depends only on the edge set —
  /// a sharded store holding the same edges reproduces it exactly.
  std::vector<IoId> path_from(IoId root, IoId id, double min_confidence = 0.0) const;

  /// Vertex iteration in ascending IoId order (matching capture order for
  /// graphs built from a capture stream).
  void for_each_vertex(const std::function<void(const IoRecord&)>& fn) const;
  /// Edge iteration grouped by source vertex in ascending IoId order,
  /// per-vertex edges in insertion order. The materializing overload copies
  /// the origin string per edge; the view overload does not.
  void for_each_edge(const std::function<void(const HbgEdge&)>& fn) const;
  template <typename Fn>
  void for_each_edge_view(Fn&& fn) const {
    for (VertexIndex v : id_order()) {
      scan_adjacency(out_, v, [&](const HalfEdge& half) {
        fn(make_view(v, half.other, half));
        return false;
      });
    }
  }

  /// All vertices with no in-edges (potential root causes network-wide),
  /// ascending.
  std::vector<IoId> all_leaves(double min_confidence = 0.0) const;

  /// Re-pack the append-side edge buffers into the CSR segments now
  /// (otherwise triggered automatically as the buffers grow). Discards any
  /// in-progress amortized pass and re-packs from the live structures, so
  /// it is safe at any point.
  void compact();
  /// Append-side buffer occupancy (diagnostics/tests).
  std::size_t pending_edge_count() const { return out_.pending.size(); }

  /// Amortize compaction: instead of re-packing the whole CSR inside one
  /// add_edge call (stop-the-world O(E)), spread the re-pack across
  /// subsequent add_edge calls, copying at most `budget` half-edges per
  /// call. 0 (the default) keeps the eager behaviour. Because per-vertex
  /// insertion order is preserved either way, every query — and every
  /// downstream report digest — is byte-identical to eager compaction (see
  /// tests/test_hbg_compact.cpp). A long-running ingester (hbguardd) sets a
  /// budget so no single append pays the full re-pack latency.
  void set_compact_budget(std::size_t budget) { compact_budget_ = budget; }
  std::size_t compact_budget() const { return compact_budget_; }
  /// An amortized re-pack is currently mid-flight (diagnostics/tests).
  bool compaction_in_progress() const { return inflight_.active; }
  /// Advance an in-flight amortized re-pack by up to `budget` half-edge
  /// copies without adding an edge — idle-time maintenance for a
  /// long-running ingester. No-op when no pass is active.
  void compact_step(std::size_t budget);

 private:
  static constexpr std::uint32_t kOwnedRecordBit = 0x80000000u;
  static constexpr std::uint32_t kNoPending = 0xFFFFFFFFu;

  struct VertexSlot {
    IoId id = kNoIo;
    std::uint32_t store_index = 0;  // kOwnedRecordBit => owned_records_
  };
  struct HalfEdge {
    VertexIndex other = kNoVertexIndex;  // to (out direction) / from (in)
    std::uint32_t origin = 0;            // intern-pool index
    double confidence = 1.0;
  };
  struct PendingEdge {
    HalfEdge half;
    VertexIndex src = kNoVertexIndex;  // owning vertex (for pass-leftover rebuild)
    std::uint32_t next = kNoPending;   // chain per source vertex, in order
  };
  struct Adjacency {
    std::vector<std::uint32_t> offsets;  // CSR; size = compacted vertices + 1
    std::vector<HalfEdge> csr;
    std::vector<PendingEdge> pending;
    std::vector<std::uint32_t> head;  // per vertex, first pending (kNoPending)
    std::vector<std::uint32_t> tail;  // per vertex, last pending
  };

  VertexIndex index_of(IoId id) const {
    return id < id_to_index_.size() ? id_to_index_[static_cast<std::size_t>(id)]
                                    : kNoVertexIndex;
  }
  const IoRecord& record_at(VertexIndex v) const {
    std::uint32_t idx = vertices_[v].store_index;
    return (idx & kOwnedRecordBit) != 0 ? owned_records_[idx & ~kOwnedRecordBit]
                                        : (*external_store_)[idx];
  }
  HbgEdgeView make_view(VertexIndex from, VertexIndex to, const HalfEdge& half) const {
    return {vertices_[from].id, vertices_[to].id, half.confidence, origin_pool_[half.origin]};
  }
  template <typename Fn>
  static bool invoke_edge_fn(Fn&& fn, const HbgEdgeView& view) {
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, const HbgEdgeView&>, bool>) {
      return fn(view);
    } else {
      fn(view);
      return false;
    }
  }

  /// Iterate v's half-edges: CSR segment first, then the pending chain —
  /// together the per-vertex insertion order. `fn` returns true to stop.
  template <typename Fn>
  void scan_adjacency(const Adjacency& adj, VertexIndex v, Fn&& fn) const {
    if (v + 1 < adj.offsets.size()) {
      for (std::uint32_t i = adj.offsets[v]; i < adj.offsets[v + 1]; ++i) {
        if (fn(adj.csr[i])) return;
      }
    }
    if (v < adj.head.size()) {
      for (std::uint32_t p = adj.head[v]; p != kNoPending; p = adj.pending[p].next) {
        if (fn(adj.pending[p].half)) return;
      }
    }
  }

  /// In-progress amortized re-pack. The pass freezes the vertex count and
  /// per-direction pending sizes at start, then copies vertices — CSR
  /// segment first, then the frozen prefix of the pending chain — into side
  /// arrays, at most `compact_budget_` half-edges per add_edge call. The
  /// live structures are never mutated mid-pass (queries keep using them);
  /// when a direction's copy completes it is swapped in and the post-freeze
  /// chain suffix is re-appended as the new pending buffer. Edges appended
  /// (or vertices inserted) during the pass land past the freeze point and
  /// survive the swap untouched.
  struct InflightCompaction {
    bool active = false;
    int stage = 0;                    // 0 = out_, 1 = in_
    VertexIndex next_vertex = 0;      // first vertex not yet copied (this stage)
    VertexIndex frozen_vertices = 0;  // vertex count at pass start
    std::size_t frozen_pending[2] = {0, 0};  // pending sizes at pass start
    std::vector<std::uint32_t> offsets;      // side arrays for the stage
    std::vector<HalfEdge> csr;
  };

  VertexIndex insert_vertex(IoId id, std::uint32_t store_index);
  void append_half(Adjacency& adj, VertexIndex v, const HalfEdge& half);
  HalfEdge* find_half(Adjacency& adj, VertexIndex v, VertexIndex other);
  void compact_adjacency(Adjacency& adj);
  std::uint32_t intern_origin(std::string_view origin);
  void maybe_compact();
  void start_compaction();
  void advance_compaction(std::size_t budget);
  /// Install the completed stage's side arrays into `adj`, keeping the
  /// post-freeze pending suffix as the new append buffer.
  void swap_compacted(Adjacency& adj, std::size_t frozen_pending);
  /// Mirror a confidence upgrade into the in-flight copy when the touched
  /// half-edge was already copied by the active stage.
  void patch_inflight(int stage, VertexIndex v, const HalfEdge& updated);

  /// Vertex indices in ascending-id order; the identity sequence while ids
  /// were appended monotonically (the capture-stream case), a cached
  /// permutation otherwise.
  const std::vector<VertexIndex>& id_order() const;

  std::uint32_t next_epoch() const;

  std::vector<VertexSlot> vertices_;
  std::vector<VertexIndex> id_to_index_;  // id -> vertex index
  std::vector<IoRecord> owned_records_;
  const std::vector<IoRecord>* external_store_ = nullptr;
  Adjacency out_;
  Adjacency in_;
  std::size_t edge_total_ = 0;
  std::size_t compact_budget_ = 0;  // 0 = eager compaction
  InflightCompaction inflight_;
  std::vector<std::string> origin_pool_;
  std::map<std::string, std::uint32_t, std::less<>> origin_ids_;

  bool ids_monotone_ = true;  // every vertex appended with a larger id
  mutable std::vector<VertexIndex> id_order_cache_;
  mutable bool id_order_dirty_ = false;

  // Epoch-stamped traversal scratch (reused across queries; see header
  // comment on single-threaded traversal).
  mutable std::vector<std::uint32_t> visit_epoch_;
  mutable std::uint32_t epoch_ = 0;
  mutable std::vector<VertexIndex> bfs_queue_;
  mutable std::vector<std::uint32_t> bfs_dist_;
};

}  // namespace hbguard
