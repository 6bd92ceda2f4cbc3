#include "hbguard/provenance/distributed_hbg.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <set>
#include <string>

#include "hbguard/hbg/incremental.hpp"
#include "hbguard/hbr/incremental.hpp"
#include "hbguard/util/logging.hpp"

namespace hbguard {

namespace {
constexpr std::size_t kVertexSlotBytes = 16;  // id + store index
constexpr std::size_t kHalfEdgeBytes = 16;    // other + origin + confidence
/// Cross-shard sends per encoded frame: an outbox flushes when it reaches
/// this size, and whatever is left flushes at the end of every append.
constexpr std::size_t kExchangeBatch = 64;

bool internal_peer(const IoRecord& r) {
  return r.peer != kExternalRouter && r.peer != kInvalidRouter;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// One shard's FIFO channel matcher. It replicates
/// RuleMatchEngine::match_channels exactly — including the
/// skip-too-late-receive semantics — over ShardMessages fed in global
/// capture order, and knows nothing of shards or graphs: the store
/// classifies each matched (send, recv) pair.
class ShardChannelMatcher {
 public:
  explicit ShardChannelMatcher(SimTime cross_router_slack_us)
      : slack_us_(cross_router_slack_us) {}

  /// Sort `events` by capture sequence (unique per record, so this is the
  /// total order the single-graph engine saw), feed them, and call
  /// `on_match(send_io, recv_io)` for every pair they complete.
  template <typename OnMatch>
  void feed_sorted(std::vector<ShardMessage>& events, OnMatch&& on_match) {
    std::sort(events.begin(), events.end(),
              [](const ShardMessage& a, const ShardMessage& b) { return a.seq < b.seq; });
    for (const ShardMessage& event : events) {
      ChannelState& channel = channels_[event.channel];
      if (event.is_send) {
        // Receives this (too-late) send can no longer serve are dropped —
        // RuleMatchEngine::match_channels' skip semantics.
        while (!channel.unmatched_recvs.empty() &&
               event.logged_time > channel.unmatched_recvs.front().logged_time + slack_us_) {
          channel.unmatched_recvs.pop_front();
        }
        if (!channel.unmatched_recvs.empty()) {
          on_match(event.io, channel.unmatched_recvs.front().id);
          channel.unmatched_recvs.pop_front();
        } else {
          channel.unmatched_sends.push_back({event.io, event.logged_time});
        }
      } else if (!channel.unmatched_sends.empty() &&
                 channel.unmatched_sends.front().logged_time <= event.logged_time + slack_us_) {
        on_match(channel.unmatched_sends.front().id, event.io);
        channel.unmatched_sends.pop_front();
      } else {
        channel.unmatched_recvs.push_back({event.io, event.logged_time});
      }
    }
  }

 private:
  struct PendingIo {
    IoId id = kNoIo;
    SimTime logged_time = 0;
  };
  struct ChannelState {
    std::deque<PendingIo> unmatched_sends;
    std::deque<PendingIo> unmatched_recvs;
  };

  SimTime slack_us_;
  std::map<std::string, ChannelState> channels_;
};
}  // namespace

struct DistributedHbgStore::Shard {
  IncrementalHbgBuilder builder;
  ShardChannelMatcher matcher;  // FIFO state persists across appends

  /// outboxes[r]: sends addressed to shard r, not yet encoded into a frame.
  std::vector<std::vector<ShardMessage>> outboxes;
  /// This append's channel events awaiting the match: the shard's own
  /// receives and same-shard sends, plus every send decoded from a frame.
  std::vector<ShardMessage> events;

  // Retained message index + exact accounting. Router byte shares are the
  // received frames' real sizes apportioned over their messages.
  std::vector<ShardMessage> inbox;
  std::size_t inbox_wire_bytes = 0;
  std::map<RouterId, std::size_t> inbox_router_bytes;

  std::map<IoId, std::vector<HbgEdge>> cross_in;   // remote parents by local recv
  std::map<IoId, std::vector<HbgEdge>> cross_out;  // remote children by local send

  explicit Shard(const MatcherOptions& matcher_options)
      : builder(matcher_options), matcher(matcher_options.cross_router_slack_us) {
    builder.set_channel_matching(false);
  }
};

DistributedHbgStore::DistributedHbgStore() : DistributedHbgStore(Options{}) {}

DistributedHbgStore::DistributedHbgStore(Options options) : options_(std::move(options)) {}

DistributedHbgStore::DistributedHbgStore(const HappensBeforeGraph& global)
    : DistributedHbgStore(global, Options{}) {}

DistributedHbgStore::DistributedHbgStore(const HappensBeforeGraph& global, Options options)
    : options_(std::move(options)) {
  // Adoption path: partition an already-built graph. No engines run and no
  // exchange happens — the edge partition is taken as-is. Vertices share
  // the global graph's record store when it has one (each vertex then costs
  // one id+index slot instead of a full record copy).
  store_ = global.record_store();
  std::less_equal<const IoRecord*> le;
  std::less<const IoRecord*> lt;
  global.for_each_vertex([&](const IoRecord& record) {
    owner_set(record.id, record.router);
    Shard& shard = *shards_[assign_shard(record.router)];
    HappensBeforeGraph& graph = shard.builder.graph_mutable();
    if (store_ != nullptr && !store_->empty() && le(store_->data(), &record) &&
        lt(&record, store_->data() + store_->size())) {
      graph.add_vertex_ref(record.id, static_cast<std::uint32_t>(&record - store_->data()));
    } else {
      graph.add_vertex(record);
    }
  });
  global.for_each_edge_view([&](const HbgEdgeView& edge) {
    std::uint32_t from_shard = shard_of(owner_of(edge.from));
    std::uint32_t to_shard = shard_of(owner_of(edge.to));
    if (from_shard == to_shard) {
      shards_[to_shard]->builder.graph_mutable().add_edge(edge.from, edge.to, edge.confidence,
                                                          edge.origin);
    } else {
      HbgEdge copy{edge.from, edge.to, edge.confidence, std::string(edge.origin)};
      shards_[to_shard]->cross_in[edge.to].push_back(copy);
      shards_[from_shard]->cross_out[edge.from].push_back(std::move(copy));
      ++cross_edge_total_;
    }
  });
  for (auto& shard : shards_) shard->builder.graph_mutable().compact();
}

DistributedHbgStore::~DistributedHbgStore() = default;
DistributedHbgStore::DistributedHbgStore(DistributedHbgStore&&) = default;
DistributedHbgStore& DistributedHbgStore::operator=(DistributedHbgStore&&) = default;

void DistributedHbgStore::attach_store(const std::vector<IoRecord>* store) { store_ = store; }

DistributedHbgStore::Shard& DistributedHbgStore::new_shard() {
  shards_.push_back(std::make_unique<Shard>(options_.matcher));
  Shard& shard = *shards_.back();
  if (store_ != nullptr) shard.builder.attach_store(store_);
  return shard;
}

std::uint32_t DistributedHbgStore::assign_shard(RouterId router) {
  if (router >= router_shard_.size()) {
    router_shard_.resize(static_cast<std::size_t>(router) + 1, kNoShard);
  }
  std::uint32_t& slot = router_shard_[router];
  if (slot != kNoShard) return slot;
  if (options_.num_shards > 0) {
    slot = static_cast<std::uint32_t>(router % options_.num_shards);
    while (shards_.size() <= slot) new_shard();
  } else {
    // One shard per router, created in order of first appearance (capture
    // order for streaming construction).
    slot = static_cast<std::uint32_t>(shards_.size());
    new_shard();
  }
  return slot;
}

void DistributedHbgStore::owner_set(IoId id, RouterId router) {
  if (id >= owner_.size()) {
    owner_.resize(std::max<std::size_t>(static_cast<std::size_t>(id) + 1, owner_.size() * 2),
                  kInvalidRouter);
  }
  owner_[id] = router;
}

void DistributedHbgStore::append(std::span<const IoRecord> records) {
  if (records.empty()) return;
  const std::uint64_t seq_base = stats_.records_ingested;
  stats_.records_ingested += records.size();

  for (std::size_t i = 0; i < records.size(); ++i) {
    const IoRecord& r = records[i];
    owner_set(r.id, r.router);
    const std::uint32_t home = assign_shard(r.router);
    Shard& shard = *shards_[home];
    // Same-router rule matching over the shard's own tap stream only. Every
    // edge the local-only engine emits has both endpoints on the same
    // router, hence inside this shard.
    shard.builder.append(records.subspan(i, 1));

    const bool is_send = r.kind == IoKind::kSendAdvert;
    if ((!is_send && r.kind != IoKind::kRecvAdvert) || !internal_peer(r)) continue;
    // Channel events carry the record's global capture sequence so every
    // shard's match can restore capture order across the exchange.
    ShardMessage event{seq_base + i,
                       r.id,
                       is_send ? r.router : r.peer,
                       is_send ? r.peer : r.router,
                       r.logged_time,
                       is_send,
                       RuleMatchEngine::channel_key(r, is_send)};
    const std::uint32_t peer_shard = assign_shard(r.peer);
    if (!is_send || peer_shard == home) {
      shard.events.push_back(std::move(event));
      continue;
    }
    ++stats_.messages;
    if (shard.outboxes.size() <= peer_shard) shard.outboxes.resize(shards_.size());
    std::vector<ShardMessage>& outbox = shard.outboxes[peer_shard];
    outbox.push_back(std::move(event));
    if (outbox.size() >= kExchangeBatch) flush_outbox(shard, peer_shard);
  }

  // Nothing deferred survives the call: partial outboxes flush, then every
  // shard matches its own events together with the sends it decoded.
  for (auto& shard : shards_) {
    for (std::uint32_t receiver = 0; receiver < shard->outboxes.size(); ++receiver) {
      flush_outbox(*shard, receiver);
    }
  }
  for (std::uint32_t s = 0; s < shards_.size(); ++s) match_shard(s);
}

void DistributedHbgStore::flush_outbox(Shard& sender, std::uint32_t receiver) {
  std::vector<ShardMessage>& pending = sender.outboxes[receiver];
  if (pending.empty()) return;
  std::vector<std::uint8_t> frame;
  std::uint64_t start = now_ns();
  encode_shard_frame(pending, frame);
  stats_.encode_ns += now_ns() - start;
  ++stats_.frames;
  stats_.wire_bytes += frame.size();
  pending.clear();

  // The receiving shard learns these sends only from the frame's bytes.
  start = now_ns();
  std::vector<ShardMessage> decoded;
  if (!decode_shard_frame(frame, decoded)) {
    HBG_ERROR << "distributed hbg: dropping malformed exchange frame (" << frame.size()
              << " bytes)";
    return;
  }
  stats_.decode_ns += now_ns() - start;
  Shard& shard = *shards_[receiver];
  shard.inbox_wire_bytes += frame.size();
  // Apportion the frame's real bytes over its messages, remainder to the
  // earliest: frame composition is deterministic (each outbox fills in
  // capture order and flushes at fixed batch boundaries), so per-router
  // byte accounting is too.
  const std::size_t base = frame.size() / decoded.size();
  std::size_t remainder = frame.size() % decoded.size();
  for (ShardMessage& message : decoded) {
    shard.inbox_router_bytes[message.to_router] += base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    shard.inbox.push_back(message);
    shard.events.push_back(std::move(message));
  }
}

void DistributedHbgStore::match_shard(std::uint32_t shard_index) {
  Shard& shard = *shards_[shard_index];
  shard.matcher.feed_sorted(shard.events, [&](IoId send_io, IoId recv_io) {
    HbgEdge edge{send_io, recv_io, 1.0, "send->recv"};
    const std::uint32_t send_shard = shard_of(owner_of(send_io));
    if (send_shard == shard_index) {
      shard.builder.add_matched_edge(edge);
      return;
    }
    // Spanning pair: a remote parent on the receiver, and a remote child on
    // the sender so descendant walks can leave its shard.
    shard.cross_in[recv_io].push_back(edge);
    shards_[send_shard]->cross_out[send_io].push_back(std::move(edge));
    ++cross_edge_total_;
    ++stats_.cross_edges;
  });
  shard.events.clear();
}

const std::vector<ShardMessage>& DistributedHbgStore::inbox(std::size_t shard) const {
  return shards_[shard]->inbox;
}

std::size_t DistributedHbgStore::inbox_wire_bytes(std::size_t shard) const {
  return shards_[shard]->inbox_wire_bytes;
}

const HappensBeforeGraph* DistributedHbgStore::subgraph(RouterId router) const {
  if (router >= router_shard_.size() || router_shard_[router] == kNoShard) return nullptr;
  return &shards_[router_shard_[router]]->builder.graph();
}

const IoRecord* DistributedHbgStore::record(IoId id) const {
  RouterId owner = owner_of(id);
  if (owner == kInvalidRouter) return nullptr;
  return shards_[shard_of(owner)]->builder.graph().record(id);
}

std::vector<IoId> DistributedHbgStore::root_causes(IoId fault, double min_confidence,
                                                   DistributedQueryStats* stats) const {
  std::vector<IoId> roots;
  RouterId fault_owner = owner_of(fault);
  if (fault_owner == kInvalidRouter) return roots;

  DistributedQueryStats local_stats;
  std::set<RouterId> contacted{fault_owner};
  std::set<IoId> visited{fault};
  std::deque<IoId> frontier{fault};

  while (!frontier.empty()) {
    IoId current = frontier.front();
    frontier.pop_front();
    const Shard& shard = *shards_[shard_of(owner_of(current))];

    bool has_parent = false;
    // Local in-edges: free (the shard expands within its own subgraph).
    shard.builder.graph().for_each_in_edge(current, min_confidence,
                                           [&](const HbgEdgeView& edge) {
                                             has_parent = true;
                                             ++local_stats.edges_walked;
                                             if (visited.insert(edge.from).second) {
                                               frontier.push_back(edge.from);
                                             }
                                           });
    // Cross-shard in-edges: resolve the remote parent via the message
    // index — ship the partial path to the shard owning the send.
    auto cross = shard.cross_in.find(current);
    if (cross != shard.cross_in.end()) {
      for (const HbgEdge& edge : cross->second) {
        if (edge.confidence < min_confidence) continue;
        has_parent = true;
        ++local_stats.edges_walked;
        ++local_stats.messages;
        contacted.insert(owner_of(edge.from));
        if (visited.insert(edge.from).second) frontier.push_back(edge.from);
      }
    }
    if (!has_parent) roots.push_back(current);
  }

  // The fault itself only counts as a root when it has no parents at all
  // (mirrors HappensBeforeGraph::root_causes).
  if (!(roots.size() == 1 && roots.front() == fault)) {
    std::erase(roots, fault);
  }
  std::sort(roots.begin(), roots.end());

  local_stats.routers_contacted = contacted.size();
  if (stats != nullptr) *stats = local_stats;
  return roots;
}

std::vector<IoId> DistributedHbgStore::ancestors(IoId fault, double min_confidence,
                                                 DistributedQueryStats* stats) const {
  std::vector<IoId> up;
  RouterId fault_owner = owner_of(fault);
  if (fault_owner == kInvalidRouter) return up;

  DistributedQueryStats local_stats;
  std::set<RouterId> contacted{fault_owner};
  std::set<IoId> visited{fault};
  std::deque<IoId> frontier{fault};

  while (!frontier.empty()) {
    IoId current = frontier.front();
    frontier.pop_front();
    const Shard& shard = *shards_[shard_of(owner_of(current))];
    shard.builder.graph().for_each_in_edge(current, min_confidence,
                                           [&](const HbgEdgeView& edge) {
                                             ++local_stats.edges_walked;
                                             if (visited.insert(edge.from).second) {
                                               frontier.push_back(edge.from);
                                             }
                                           });
    auto cross = shard.cross_in.find(current);
    if (cross != shard.cross_in.end()) {
      for (const HbgEdge& edge : cross->second) {
        if (edge.confidence < min_confidence) continue;
        ++local_stats.edges_walked;
        ++local_stats.messages;
        contacted.insert(owner_of(edge.from));
        if (visited.insert(edge.from).second) frontier.push_back(edge.from);
      }
    }
  }

  visited.erase(fault);
  up.assign(visited.begin(), visited.end());
  local_stats.routers_contacted = contacted.size();
  if (stats != nullptr) *stats = local_stats;
  return up;
}

std::vector<IoId> DistributedHbgStore::path_from(IoId root, IoId fault, double min_confidence,
                                                 DistributedQueryStats* stats) const {
  // Mirrors HappensBeforeGraph::path_from's canonical spec: BFS distances
  // from the root over the forward edges, then backtrack picking the
  // smallest-id predecessor on a shortest path at each step.
  if (root == fault) return {root};
  if (owner_of(root) == kInvalidRouter || owner_of(fault) == kInvalidRouter) return {};

  DistributedQueryStats local_stats;
  std::set<RouterId> contacted{owner_of(root)};
  std::map<IoId, std::uint32_t> dist;
  dist[root] = 0;
  std::deque<IoId> frontier{root};
  bool found = false;

  auto discover = [&](IoId to, std::uint32_t d) {
    if (dist.emplace(to, d).second) {
      if (to == fault) {
        found = true;
      } else {
        frontier.push_back(to);
      }
    }
  };

  while (!frontier.empty() && !found) {
    IoId current = frontier.front();
    frontier.pop_front();
    std::uint32_t next_dist = dist.at(current) + 1;
    const Shard& shard = *shards_[shard_of(owner_of(current))];
    shard.builder.graph().for_each_out_edge(current, min_confidence,
                                            [&](const HbgEdgeView& edge) {
                                              ++local_stats.edges_walked;
                                              discover(edge.to, next_dist);
                                              return found;
                                            });
    if (found) break;
    auto cross = shard.cross_out.find(current);
    if (cross != shard.cross_out.end()) {
      for (const HbgEdge& edge : cross->second) {
        if (edge.confidence < min_confidence) continue;
        ++local_stats.edges_walked;
        ++local_stats.messages;
        contacted.insert(owner_of(edge.to));
        discover(edge.to, next_dist);
        if (found) break;
      }
    }
  }
  if (!found) {
    local_stats.routers_contacted = contacted.size();
    if (stats != nullptr) *stats = local_stats;
    return {};
  }

  std::vector<IoId> path{fault};
  IoId walk = fault;
  while (walk != root) {
    std::uint32_t want = dist.at(walk) - 1;
    IoId best = kNoIo;
    auto consider = [&](IoId from, double confidence) {
      if (confidence < min_confidence) return;
      auto it = dist.find(from);
      if (it == dist.end() || it->second != want) return;
      if (best == kNoIo || from < best) best = from;
    };
    const Shard& shard = *shards_[shard_of(owner_of(walk))];
    shard.builder.graph().for_each_in_edge(
        walk, min_confidence, [&](const HbgEdgeView& edge) { consider(edge.from, edge.confidence); });
    auto cross = shard.cross_in.find(walk);
    if (cross != shard.cross_in.end()) {
      for (const HbgEdge& edge : cross->second) {
        ++local_stats.messages;
        consider(edge.from, edge.confidence);
      }
    }
    walk = best;
    path.push_back(walk);
  }
  std::reverse(path.begin(), path.end());
  local_stats.routers_contacted = contacted.size();
  if (stats != nullptr) *stats = local_stats;
  return path;
}

std::map<RouterId, DistributedHbgStore::RouterStorage>
DistributedHbgStore::per_router_storage() const {
  std::map<RouterId, RouterStorage> storage;
  for (RouterId router = 0; router < router_shard_.size(); ++router) {
    if (router_shard_[router] != kNoShard) storage[router];
  }
  for (const auto& shard : shards_) {
    const HappensBeforeGraph& graph = shard->builder.graph();
    graph.for_each_vertex([&](const IoRecord& record) {
      RouterStorage& slot = storage[record.router];
      ++slot.ios;
      slot.storage_bytes += kVertexSlotBytes;
    });
    // Edges are stored at the head (receiving) router: one half-edge in
    // each direction.
    graph.for_each_edge_view([&](const HbgEdgeView& edge) {
      const IoRecord* to = graph.record(edge.to);
      if (to == nullptr) return;
      RouterStorage& slot = storage[to->router];
      ++slot.local_edges;
      slot.storage_bytes += 2 * kHalfEdgeBytes;
    });
    for (const auto& [recv, edges] : shard->cross_in) {
      RouterId owner = owner_of(recv);
      if (owner == kInvalidRouter) continue;
      RouterStorage& slot = storage[owner];
      slot.cross_in_edges += edges.size();
      slot.storage_bytes += edges.size() * (kHalfEdgeBytes + sizeof(IoId));
    }
    // Retained construction messages are charged at their apportioned share
    // of the real encoded frame bytes.
    for (const ShardMessage& message : shard->inbox) {
      ++storage[message.to_router].inbox_messages;
    }
    for (const auto& [router, bytes] : shard->inbox_router_bytes) {
      storage[router].storage_bytes += bytes;
    }
  }
  return storage;
}

}  // namespace hbguard
