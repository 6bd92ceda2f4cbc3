// Distributed HBG storage, construction and provenance queries (§5).
//
// "Each router can store its own happens-before subgraph containing that
// router's control plane I/Os. Partial paths through the HBG can be passed
// to neighboring routers that can expand the paths based on their
// happens-before subgraph."
//
// DistributedHbgStore shards the happens-before graph by router (or by a
// fixed shard count, several routers per shard). Every shard runs the
// same-router matching rules over only its own tap stream — one local-only
// RuleMatchEngine per shard — and appends into its own CSR-backed
// HappensBeforeGraph. Same-router rules read nothing but the record's own
// router log, so per-shard matching emits exactly the edges a global engine
// would.
//
// Cross-router HBRs (send→recv) are the only edges whose endpoints can
// live on different shards. They are matched by the *receiving* shard,
// which replays the engine's FIFO channel semantics over its own channel
// events merged with every send other shards addressed to it. A receiving
// shard learns a remote send only by decoding the binary shard_wire frame
// that carried it (varint + delta + interned channel keys, 64 sends per
// frame). Construction is serial and complete within each append(): the
// batch is walked in capture order, partial outboxes flush before it
// returns, and every shard then runs its channel match. Matched pairs that
// stay within one shard become ordinary graph edges; pairs that span shards
// are stored as remote-parent entries (cross_in) on the receiver and
// remote-child entries (cross_out) on the sender.
//
// The exchange is counted exactly: ConstructionStats::wire_bytes is the
// actual encoded size of the cross-shard frames (not an estimate), with
// encode/decode time and frame counts alongside. Provenance queries
// (root_causes, ancestors, path_from) run shard-local, pay one message per
// cross-shard edge traversal, and return byte-identical answers to the
// single global graph.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "hbguard/hbg/graph.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/provenance/shard_wire.hpp"

namespace hbguard {

struct DistributedQueryStats {
  std::size_t messages = 0;           // partial paths shipped across shards
  std::size_t routers_contacted = 0;  // distinct routers involved
  std::size_t edges_walked = 0;       // total HBG edges traversed

  DistributedQueryStats& operator+=(const DistributedQueryStats& other) {
    messages += other.messages;
    routers_contacted = std::max(routers_contacted, other.routers_contacted);
    edges_walked += other.edges_walked;
    return *this;
  }
};

class DistributedHbgStore {
 public:
  struct Options {
    /// Number of shards; 0 = one shard per router (the paper's §5
    /// deployment). With a fixed count routers map round-robin
    /// (router % num_shards).
    std::size_t num_shards = 0;

    MatcherOptions matcher;
  };

  /// Communication cost paid while building the sharded graph.
  struct ConstructionStats {
    std::size_t records_ingested = 0;
    std::size_t messages = 0;     // ShardMessages exchanged (cross-shard sends)
    std::size_t frames = 0;       // encoded cross-shard frames carrying them
    std::size_t wire_bytes = 0;   // actual encoded bytes of those frames
    std::size_t cross_edges = 0;  // matched send→recv pairs spanning shards
    std::uint64_t encode_ns = 0;  // time spent encoding exchange frames
    std::uint64_t decode_ns = 0;  // time spent decoding them
  };

  /// Resident-storage accounting for one router's slice of the graph.
  struct RouterStorage {
    std::size_t ios = 0;             // vertices owned by the router
    std::size_t local_edges = 0;     // edges stored at the router (by head)
    std::size_t cross_in_edges = 0;  // remote-parent entries
    std::size_t inbox_messages = 0;  // construction messages retained
    std::size_t storage_bytes = 0;   // resident bytes (encoded inbox share)
  };

  /// Streaming construction: attach the capture store, then append record
  /// batches as they arrive (the Guard feeds its scan deltas).
  DistributedHbgStore();
  explicit DistributedHbgStore(Options options);

  /// Adoption: shard an already-built global HBG (any inference, including
  /// ground truth). No engines run; the edge partition is taken as-is.
  explicit DistributedHbgStore(const HappensBeforeGraph& global);
  DistributedHbgStore(const HappensBeforeGraph& global, Options options);

  ~DistributedHbgStore();
  DistributedHbgStore(DistributedHbgStore&&);
  DistributedHbgStore& operator=(DistributedHbgStore&&);

  /// Share the capture record store so shard vertices hold indices instead
  /// of copies. Call before the first append.
  void attach_store(const std::vector<IoRecord>* store);

  /// Ingest a capture-order batch: per-shard rule matching, the cross-shard
  /// frame exchange and every shard's channel match all finish before this
  /// returns. Answers are identical at any batch chunking.
  void append(std::span<const IoRecord> records);

  // -- Provenance queries (byte-identical to the global graph) ------------

  /// Backward traversal from `fault` to its provenance leaves — the same
  /// answer HappensBeforeGraph::root_causes gives, computed by distributed
  /// expansion (one message per cross-shard edge).
  std::vector<IoId> root_causes(IoId fault, double min_confidence = 0.0,
                                DistributedQueryStats* stats = nullptr) const;

  /// Ancestor closure of `fault` (excludes the fault itself), ascending —
  /// identical to HappensBeforeGraph::ancestors.
  std::vector<IoId> ancestors(IoId fault, double min_confidence = 0.0,
                              DistributedQueryStats* stats = nullptr) const;

  /// Canonical shortest cause→fault chain — identical to
  /// HappensBeforeGraph::path_from (which is insertion-order independent
  /// for exactly this reason).
  std::vector<IoId> path_from(IoId root, IoId fault, double min_confidence = 0.0,
                              DistributedQueryStats* stats = nullptr) const;

  /// Resolve a record through its owning shard (nullptr when unknown).
  const IoRecord* record(IoId id) const;

  // -- Introspection / accounting -----------------------------------------

  /// The subgraph stored by the shard holding `router`'s I/Os. With
  /// per-router sharding (num_shards = 0) this is exactly the router's own
  /// slice.
  const HappensBeforeGraph* subgraph(RouterId router) const;

  std::size_t shard_count() const { return shards_.size(); }
  /// Matched send→recv edges whose endpoints live on different shards.
  std::size_t cross_edge_count() const { return cross_edge_total_; }
  const ConstructionStats& construction_stats() const { return stats_; }
  const Options& options() const { return options_; }

  /// The message index one shard retained: every cross-shard send it
  /// decoded, in frame-arrival order.
  const std::vector<ShardMessage>& inbox(std::size_t shard) const;
  /// Actual encoded bytes of the frames `shard` received.
  std::size_t inbox_wire_bytes(std::size_t shard) const;

  /// Per-router resident-byte accounting over every shard (§5 "each router
  /// can store its own happens-before subgraph"). Inbox bytes are the real
  /// encoded frame bytes, apportioned evenly over a frame's messages.
  std::map<RouterId, RouterStorage> per_router_storage() const;

 private:
  struct Shard;

  std::uint32_t shard_of(RouterId router) const { return router_shard_[router]; }
  std::uint32_t assign_shard(RouterId router);
  Shard& new_shard();
  RouterId owner_of(IoId id) const {
    return id < owner_.size() ? owner_[id] : kInvalidRouter;
  }
  void owner_set(IoId id, RouterId router);

  void flush_outbox(Shard& sender, std::uint32_t receiver);
  void match_shard(std::uint32_t shard_index);

  Options options_;
  const std::vector<IoRecord>* store_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Dense maps: RouterId → shard (kNoShard = unassigned), IoId → owner.
  std::vector<std::uint32_t> router_shard_;
  std::vector<RouterId> owner_;
  std::size_t cross_edge_total_ = 0;
  ConstructionStats stats_;

  static constexpr std::uint32_t kNoShard = 0xFFFFFFFFu;
};

}  // namespace hbguard
