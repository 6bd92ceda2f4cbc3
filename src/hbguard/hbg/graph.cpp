#include "hbguard/hbg/graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace hbguard {

namespace {
// Compaction trigger: re-pack once the append-side buffer holds at least
// this many edges AND at least a quarter of the compacted segment — i.e.
// each compaction grows the CSR by >= 25%, so total re-pack work stays
// O(E) amortized over any insertion sequence.
constexpr std::size_t kCompactMinPending = 1024;
}  // namespace

HappensBeforeGraph::VertexIndex HappensBeforeGraph::insert_vertex(IoId id,
                                                                  std::uint32_t store_index) {
  if (id >= id_to_index_.size()) {
    id_to_index_.resize(static_cast<std::size_t>(id) + 1, kNoVertexIndex);
  }
  VertexIndex v = static_cast<VertexIndex>(vertices_.size());
  if (!vertices_.empty() && vertices_.back().id >= id) ids_monotone_ = false;
  vertices_.push_back({id, store_index});
  id_to_index_[static_cast<std::size_t>(id)] = v;
  id_order_dirty_ = true;
  return v;
}

void HappensBeforeGraph::add_vertex(IoRecord record) {
  VertexIndex v = index_of(record.id);
  if (v != kNoVertexIndex) {
    // Replace semantics (a re-added vertex keeps its edges, new content).
    std::uint32_t& slot = vertices_[v].store_index;
    if ((slot & kOwnedRecordBit) != 0) {
      owned_records_[slot & ~kOwnedRecordBit] = std::move(record);
    } else {
      slot = kOwnedRecordBit | static_cast<std::uint32_t>(owned_records_.size());
      owned_records_.push_back(std::move(record));
    }
    return;
  }
  IoId id = record.id;
  std::uint32_t slot = kOwnedRecordBit | static_cast<std::uint32_t>(owned_records_.size());
  owned_records_.push_back(std::move(record));
  insert_vertex(id, slot);
}

void HappensBeforeGraph::add_vertex_ref(IoId id, std::uint32_t store_index) {
  if (external_store_ == nullptr) {
    throw std::logic_error("add_vertex_ref requires an attached record store");
  }
  VertexIndex v = index_of(id);
  if (v != kNoVertexIndex) {
    vertices_[v].store_index = store_index;
    return;
  }
  insert_vertex(id, store_index);
}

std::uint32_t HappensBeforeGraph::intern_origin(std::string_view origin) {
  auto it = origin_ids_.find(origin);
  if (it != origin_ids_.end()) return it->second;
  std::uint32_t id = static_cast<std::uint32_t>(origin_pool_.size());
  origin_pool_.emplace_back(origin);
  origin_ids_.emplace(origin_pool_.back(), id);
  return id;
}

void HappensBeforeGraph::append_half(Adjacency& adj, VertexIndex v, const HalfEdge& half) {
  if (adj.head.size() < vertices_.size()) {
    adj.head.resize(vertices_.size(), kNoPending);
    adj.tail.resize(vertices_.size(), kNoPending);
  }
  std::uint32_t slot = static_cast<std::uint32_t>(adj.pending.size());
  adj.pending.push_back({half, v, kNoPending});
  if (adj.head[v] == kNoPending) {
    adj.head[v] = slot;
  } else {
    adj.pending[adj.tail[v]].next = slot;
  }
  adj.tail[v] = slot;
}

HappensBeforeGraph::HalfEdge* HappensBeforeGraph::find_half(Adjacency& adj, VertexIndex v,
                                                            VertexIndex other) {
  if (v + 1 < adj.offsets.size()) {
    for (std::uint32_t i = adj.offsets[v]; i < adj.offsets[v + 1]; ++i) {
      if (adj.csr[i].other == other) return &adj.csr[i];
    }
  }
  if (v < adj.head.size()) {
    for (std::uint32_t p = adj.head[v]; p != kNoPending; p = adj.pending[p].next) {
      if (adj.pending[p].half.other == other) return &adj.pending[p].half;
    }
  }
  return nullptr;
}

void HappensBeforeGraph::add_edge(IoId from, IoId to, double confidence,
                                  std::string_view origin) {
  VertexIndex f = index_of(from);
  VertexIndex t = index_of(to);
  if (f == kNoVertexIndex || t == kNoVertexIndex) {
    throw std::invalid_argument("HBG edge references unknown vertex");
  }
  if (from == to) return;
  if (HalfEdge* existing = find_half(out_, f, t)) {
    if (confidence > existing->confidence) {
      std::uint32_t origin_id = intern_origin(origin);
      existing->confidence = confidence;
      existing->origin = origin_id;
      HalfEdge* back = find_half(in_, t, f);
      back->confidence = confidence;
      back->origin = origin_id;
      if (inflight_.active) {
        // The upgraded half may already have been copied into the in-flight
        // side arrays; mirror it there so the swap installs current values.
        patch_inflight(0, f, {t, origin_id, confidence});
        patch_inflight(1, t, {f, origin_id, confidence});
      }
    }
    return;
  }
  std::uint32_t origin_id = intern_origin(origin);
  append_half(out_, f, {t, origin_id, confidence});
  append_half(in_, t, {f, origin_id, confidence});
  ++edge_total_;
  maybe_compact();
}

void HappensBeforeGraph::maybe_compact() {
  if (compact_budget_ > 0) {
    if (inflight_.active) {
      advance_compaction(compact_budget_);
      return;
    }
    if (out_.pending.size() >= kCompactMinPending &&
        out_.pending.size() * 4 >= out_.csr.size()) {
      start_compaction();
      advance_compaction(compact_budget_);
    }
    return;
  }
  if (out_.pending.size() >= kCompactMinPending &&
      out_.pending.size() * 4 >= out_.csr.size()) {
    compact();
  }
}

void HappensBeforeGraph::start_compaction() {
  inflight_.active = true;
  inflight_.stage = 0;
  inflight_.next_vertex = 0;
  inflight_.frozen_vertices = static_cast<VertexIndex>(vertices_.size());
  inflight_.frozen_pending[0] = out_.pending.size();
  inflight_.frozen_pending[1] = in_.pending.size();
  inflight_.offsets.clear();
  inflight_.offsets.reserve(inflight_.frozen_vertices + 1);
  inflight_.offsets.push_back(0);
  inflight_.csr.clear();
  inflight_.csr.reserve(out_.csr.size() + out_.pending.size());
}

void HappensBeforeGraph::advance_compaction(std::size_t budget) {
  while (inflight_.active && budget > 0) {
    Adjacency& adj = inflight_.stage == 0 ? out_ : in_;
    std::size_t frozen_pending = inflight_.frozen_pending[inflight_.stage];
    if (inflight_.next_vertex == inflight_.frozen_vertices) {
      swap_compacted(adj, frozen_pending);
      if (inflight_.stage == 1) {
        inflight_ = InflightCompaction{};
        return;
      }
      inflight_.stage = 1;
      inflight_.next_vertex = 0;
      inflight_.offsets.clear();
      inflight_.offsets.push_back(0);
      inflight_.csr.clear();
      inflight_.csr.reserve(in_.csr.size() + inflight_.frozen_pending[1]);
      continue;
    }
    // Copy one vertex: CSR segment, then the frozen prefix of its pending
    // chain (chain slots are monotone, so the frozen entries are a prefix).
    VertexIndex v = inflight_.next_vertex++;
    std::size_t copied = 0;
    if (v + 1 < adj.offsets.size()) {
      for (std::uint32_t i = adj.offsets[v]; i < adj.offsets[v + 1]; ++i) {
        inflight_.csr.push_back(adj.csr[i]);
        ++copied;
      }
    }
    if (v < adj.head.size()) {
      for (std::uint32_t p = adj.head[v]; p != kNoPending && p < frozen_pending;
           p = adj.pending[p].next) {
        inflight_.csr.push_back(adj.pending[p].half);
        ++copied;
      }
    }
    inflight_.offsets.push_back(static_cast<std::uint32_t>(inflight_.csr.size()));
    budget -= std::min(budget, std::max<std::size_t>(copied, 1));
  }
}

void HappensBeforeGraph::swap_compacted(Adjacency& adj, std::size_t frozen_pending) {
  adj.offsets = std::move(inflight_.offsets);
  adj.csr = std::move(inflight_.csr);
  // Post-freeze appends become the new pending buffer, same relative order.
  std::vector<PendingEdge> leftover(adj.pending.begin() + frozen_pending, adj.pending.end());
  adj.pending.clear();
  adj.head.assign(vertices_.size(), kNoPending);
  adj.tail.assign(vertices_.size(), kNoPending);
  for (const PendingEdge& edge : leftover) append_half(adj, edge.src, edge.half);
}

void HappensBeforeGraph::compact_step(std::size_t budget) {
  if (inflight_.active && budget > 0) advance_compaction(budget);
}

void HappensBeforeGraph::patch_inflight(int stage, VertexIndex v, const HalfEdge& updated) {
  if (stage != inflight_.stage) return;  // not yet started, or already swapped in
  if (v >= inflight_.next_vertex) return;
  for (std::uint32_t i = inflight_.offsets[v]; i < inflight_.offsets[v + 1]; ++i) {
    if (inflight_.csr[i].other == updated.other) {
      inflight_.csr[i] = updated;
      return;
    }
  }
}

void HappensBeforeGraph::compact_adjacency(Adjacency& adj) {
  std::size_t n = vertices_.size();
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (VertexIndex v = 0; v < n; ++v) {
    std::uint32_t degree = 0;
    scan_adjacency(adj, v, [&](const HalfEdge&) {
      ++degree;
      return false;
    });
    offsets[v + 1] = offsets[v] + degree;
  }
  std::vector<HalfEdge> csr(offsets[n]);
  for (VertexIndex v = 0; v < n; ++v) {
    std::uint32_t cursor = offsets[v];
    scan_adjacency(adj, v, [&](const HalfEdge& half) {
      csr[cursor++] = half;
      return false;
    });
  }
  adj.offsets = std::move(offsets);
  adj.csr = std::move(csr);
  adj.pending.clear();
  adj.head.clear();
  adj.tail.clear();
}

void HappensBeforeGraph::compact() {
  // An amortized pass never mutates the live structures before its swap, so
  // discarding it mid-flight is always safe: the live CSR + chains still
  // hold every edge in per-vertex insertion order.
  inflight_ = InflightCompaction{};
  compact_adjacency(out_);
  compact_adjacency(in_);
}

const IoRecord* HappensBeforeGraph::record(IoId id) const {
  VertexIndex v = index_of(id);
  return v == kNoVertexIndex ? nullptr : &record_at(v);
}

std::vector<HbgEdge> HappensBeforeGraph::in_edges(IoId id, double min_confidence) const {
  std::vector<HbgEdge> result;
  for_each_in_edge(id, min_confidence, [&](const HbgEdgeView& e) {
    result.push_back({e.from, e.to, e.confidence, std::string(e.origin)});
  });
  return result;
}

std::vector<HbgEdge> HappensBeforeGraph::out_edges(IoId id, double min_confidence) const {
  std::vector<HbgEdge> result;
  for_each_out_edge(id, min_confidence, [&](const HbgEdgeView& e) {
    result.push_back({e.from, e.to, e.confidence, std::string(e.origin)});
  });
  return result;
}

bool HappensBeforeGraph::has_in_edge(IoId id, double min_confidence) const {
  VertexIndex v = index_of(id);
  if (v == kNoVertexIndex) return false;
  bool found = false;
  scan_adjacency(in_, v, [&](const HalfEdge& half) {
    if (half.confidence < min_confidence) return false;
    found = true;
    return true;
  });
  return found;
}

std::uint32_t HappensBeforeGraph::next_epoch() const {
  if (visit_epoch_.size() < vertices_.size()) visit_epoch_.resize(vertices_.size(), 0);
  if (++epoch_ == 0) {
    std::fill(visit_epoch_.begin(), visit_epoch_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

namespace {
/// BFS closure over one adjacency direction into `queue` (start at [0]),
/// marking visits in `visit` with `epoch`.
template <typename Scan>
void bfs_closure(std::vector<HappensBeforeGraph::VertexIndex>& queue,
                 std::vector<std::uint32_t>& visit, std::uint32_t epoch,
                 HappensBeforeGraph::VertexIndex start, const Scan& scan_neighbors) {
  queue.clear();
  queue.push_back(start);
  visit[start] = epoch;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    scan_neighbors(queue[head], [&](HappensBeforeGraph::VertexIndex next) {
      if (visit[next] != epoch) {
        visit[next] = epoch;
        queue.push_back(next);
      }
    });
  }
}
}  // namespace

std::vector<IoId> HappensBeforeGraph::ancestors(IoId id, double min_confidence) const {
  VertexIndex s = index_of(id);
  if (s == kNoVertexIndex) return {};
  std::uint32_t epoch = next_epoch();
  bfs_closure(bfs_queue_, visit_epoch_, epoch, s, [&](VertexIndex v, auto&& visit) {
    scan_adjacency(in_, v, [&](const HalfEdge& half) {
      if (half.confidence >= min_confidence) visit(half.other);
      return false;
    });
  });
  std::vector<IoId> result;
  result.reserve(bfs_queue_.size() - 1);
  for (std::size_t i = 1; i < bfs_queue_.size(); ++i) result.push_back(vertices_[bfs_queue_[i]].id);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<IoId> HappensBeforeGraph::descendants(IoId id, double min_confidence) const {
  VertexIndex s = index_of(id);
  if (s == kNoVertexIndex) return {};
  std::uint32_t epoch = next_epoch();
  bfs_closure(bfs_queue_, visit_epoch_, epoch, s, [&](VertexIndex v, auto&& visit) {
    scan_adjacency(out_, v, [&](const HalfEdge& half) {
      if (half.confidence >= min_confidence) visit(half.other);
      return false;
    });
  });
  std::vector<IoId> result;
  result.reserve(bfs_queue_.size() - 1);
  for (std::size_t i = 1; i < bfs_queue_.size(); ++i) result.push_back(vertices_[bfs_queue_[i]].id);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<IoId> HappensBeforeGraph::root_causes(IoId id, double min_confidence) const {
  VertexIndex s = index_of(id);
  if (s == kNoVertexIndex) return {};
  std::uint32_t epoch = next_epoch();
  bfs_closure(bfs_queue_, visit_epoch_, epoch, s, [&](VertexIndex v, auto&& visit) {
    scan_adjacency(in_, v, [&](const HalfEdge& half) {
      if (half.confidence >= min_confidence) visit(half.other);
      return false;
    });
  });
  auto rootless = [&](VertexIndex v) {
    bool found = false;
    scan_adjacency(in_, v, [&](const HalfEdge& half) {
      if (half.confidence < min_confidence) return false;
      found = true;
      return true;
    });
    return !found;
  };
  std::vector<IoId> roots;
  if (bfs_queue_.size() == 1) {
    // No ancestors: `id` is its own root iff it has no (filtered) parents.
    if (rootless(s)) roots.push_back(id);
    return roots;
  }
  for (std::size_t i = 1; i < bfs_queue_.size(); ++i) {
    VertexIndex v = bfs_queue_[i];
    if (rootless(v)) roots.push_back(vertices_[v].id);
  }
  std::sort(roots.begin(), roots.end());
  return roots;
}

std::vector<IoId> HappensBeforeGraph::path_from(IoId root, IoId id, double min_confidence) const {
  // Canonical shortest path: BFS fixes the hop distances, then the path is
  // reconstructed backwards picking the smallest-id predecessor on a
  // shortest path at every step. The result depends only on the edge *set*
  // (never on per-vertex insertion order), so any representation holding
  // the same edges — including a sharded distributed store — reproduces
  // the exact same fault chain.
  if (root == id) return {root};
  VertexIndex rs = index_of(root);
  VertexIndex target = index_of(id);
  if (rs == kNoVertexIndex || target == kNoVertexIndex) return {};
  std::uint32_t epoch = next_epoch();
  if (bfs_dist_.size() < vertices_.size()) bfs_dist_.resize(vertices_.size());
  bfs_queue_.clear();
  bfs_queue_.push_back(rs);
  visit_epoch_[rs] = epoch;
  bfs_dist_[rs] = 0;
  bool found = false;
  for (std::size_t head = 0; head < bfs_queue_.size() && !found; ++head) {
    VertexIndex current = bfs_queue_[head];
    scan_adjacency(out_, current, [&](const HalfEdge& half) {
      if (half.confidence < min_confidence) return false;
      if (visit_epoch_[half.other] == epoch) return false;
      visit_epoch_[half.other] = epoch;
      bfs_dist_[half.other] = bfs_dist_[current] + 1;
      if (half.other == target) {
        found = true;
        return true;
      }
      bfs_queue_.push_back(half.other);
      return false;
    });
  }
  if (!found) return {};
  // Every vertex at distance < dist(target) was already discovered and
  // stamped when the target turned up (BFS visits whole levels in order),
  // so the backtrack below always finds a predecessor.
  std::vector<IoId> path{vertices_[target].id};
  VertexIndex walk = target;
  while (walk != rs) {
    std::uint32_t want = bfs_dist_[walk] - 1;
    VertexIndex best = kNoVertexIndex;
    scan_adjacency(in_, walk, [&](const HalfEdge& half) {
      if (half.confidence < min_confidence) return false;
      if (visit_epoch_[half.other] != epoch || bfs_dist_[half.other] != want) return false;
      if (best == kNoVertexIndex || vertices_[half.other].id < vertices_[best].id) {
        best = half.other;
      }
      return false;
    });
    walk = best;
    path.push_back(vertices_[walk].id);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

const std::vector<HappensBeforeGraph::VertexIndex>& HappensBeforeGraph::id_order() const {
  if (id_order_dirty_ || id_order_cache_.size() != vertices_.size()) {
    id_order_cache_.resize(vertices_.size());
    std::iota(id_order_cache_.begin(), id_order_cache_.end(), 0u);
    if (!ids_monotone_) {
      std::sort(id_order_cache_.begin(), id_order_cache_.end(),
                [&](VertexIndex a, VertexIndex b) { return vertices_[a].id < vertices_[b].id; });
    }
    id_order_dirty_ = false;
  }
  return id_order_cache_;
}

void HappensBeforeGraph::for_each_vertex(const std::function<void(const IoRecord&)>& fn) const {
  for (VertexIndex v : id_order()) fn(record_at(v));
}

void HappensBeforeGraph::for_each_edge(const std::function<void(const HbgEdge&)>& fn) const {
  for_each_edge_view([&](const HbgEdgeView& e) {
    fn(HbgEdge{e.from, e.to, e.confidence, std::string(e.origin)});
  });
}

std::vector<IoId> HappensBeforeGraph::all_leaves(double min_confidence) const {
  std::vector<IoId> leaves;
  for (VertexIndex v : id_order()) {
    bool found = false;
    scan_adjacency(in_, v, [&](const HalfEdge& half) {
      if (half.confidence < min_confidence) return false;
      found = true;
      return true;
    });
    if (!found) leaves.push_back(vertices_[v].id);
  }
  return leaves;
}

}  // namespace hbguard
