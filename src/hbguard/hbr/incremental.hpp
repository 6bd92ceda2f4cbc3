// Incremental HBR matching (the online form of rule matching).
//
// The paper's deployment maintains the HBG continuously as I/Os stream in;
// rebuilding the graph from scratch on every scan is O(trace²) over a
// run's lifetime. RuleMatchEngine ingests records one at a time; it is the
// only implementation of the grouped §4.2 rules (RuleMatchingInference is
// this engine run over a whole span).
//
// §4.2 matches a rule by searching "the (timestamp- and prefix-filtered)
// stream of I/Os" for its left-hand side. The engine keeps exactly those
// filtered streams: per router, one time-sorted index per rule left-hand
// side (config changes, hardware events, OSPF receives overall and by LSA,
// BGP receives and announcements by prefix, RIB updates by prefix and
// protocol, BGP RIB updates by prefix). Every candidate lookup is one
// binary search plus a look at the two neighbours of the insertion point,
// so a record's cost does not grow with the router's history. Send→recv
// pairs are stitched through per-channel FIFO cursors keyed by integers.
//
// Records are held as 32-bit RecordRefs — indices into the attached capture
// store (attach_store) with a high-bit tag for the owned-copy fallback —
// rather than pointers or copies, so the engine adds no per-record resident
// memory beyond its index slots when fed straight from a CaptureHub. Refs
// resolve to records only within a single add() call; the store growing
// between calls is fine.
//
// One caveat under clock noise: a cause logged *after* its effect (within
// the slack) may arrive after the effect was already matched; the engine
// then emits the late edge additionally rather than replacing the earlier
// pick, so such an effect can carry both edges. With monotone per-router
// logs (slack 0) every cause arrives before its effect, so no late edge is
// ever emitted.
#pragma once

#include "hbguard/hbr/inference.hpp"
#include "hbguard/hbr/rule_matcher.hpp"

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace hbguard {

class RuleMatchEngine {
 public:
  explicit RuleMatchEngine(MatcherOptions options = {}) : options_(options) {}

  /// Share the capture record store: records passed to add() that live
  /// inside *store are referenced by index instead of copied (records from
  /// anywhere else still get owned copies). The store must outlive the
  /// engine and may only grow.
  void attach_store(const std::vector<IoRecord>* store) { external_ = store; }

  /// Ingest one record; appends any edges it completes (as effect or as
  /// late-arriving cause) to `out`.
  void add(const IoRecord& record, std::vector<InferredHbr>& out);

  /// Ingest a batch (capture order).
  void add_all(std::span<const IoRecord> records, std::vector<InferredHbr>& out);

  /// Disable the cross-router send→recv channel pass, leaving only the
  /// same-router rules. A sharded deployment runs one local-only engine per
  /// shard (same-router matching reads nothing but the record's own router
  /// indices, so it decomposes exactly) and stitches channels separately
  /// from the exchanged send messages — see DistributedHbgStore.
  void set_channel_matching(bool enabled) { channel_matching_ = enabled; }

  /// The FIFO channel a send/recv record belongs to (sender>receiver,
  /// announce/withdraw, content identity) as text. The engine itself keys
  /// channels by integers that partition records exactly as this string
  /// does; the string is the distributed exchange's wire identity.
  static std::string channel_key(const IoRecord& record, bool is_send);

  std::size_t records_seen() const { return records_seen_; }

 private:
  /// Index into the attached store, or (kOwnedBit set) into owned_.
  using RecordRef = std::uint32_t;
  static constexpr RecordRef kOwnedBit = 0x80000000u;

  const IoRecord& at(RecordRef ref) const {
    return (ref & kOwnedBit) != 0 ? owned_[ref & ~kOwnedBit] : (*external_)[ref];
  }

  /// Refs sorted by (logged_time, id).
  using TimeIndex = std::vector<RecordRef>;

  /// One router's records, filed under each rule left-hand side they can
  /// satisfy. FIB updates and sends cause nothing and are not filed. Keyed
  /// maps use prefix_key/rib_key (which distinguish "no prefix") or an
  /// interned LSA content id.
  struct RouterIndex {
    TimeIndex config;
    TimeIndex hardware;
    TimeIndex ospf_recv;
    std::unordered_map<std::uint32_t, TimeIndex> ospf_recv_by_lsa;
    std::unordered_map<std::uint64_t, TimeIndex> bgp_recv;      // by prefix
    std::unordered_map<std::uint64_t, TimeIndex> bgp_announce;  // non-withdraw, by prefix
    std::unordered_map<std::uint64_t, TimeIndex> rib;           // by (prefix, protocol)
    std::unordered_map<std::uint64_t, TimeIndex> bgp_rib;       // BGP only, by prefix
  };

  /// FIFO send→recv channel (ordered session).
  struct Channel {
    std::deque<RecordRef> unmatched_sends;
    std::deque<RecordRef> unmatched_recvs;
  };

  /// channel_key() as integers; `content` is an interned content id.
  struct ChannelKey {
    RouterId from = kInvalidRouter;
    RouterId to = kInvalidRouter;
    std::uint32_t content = 0;
    bool withdraw = false;
    bool operator==(const ChannelKey&) const = default;
  };
  struct ChannelKeyHash {
    std::size_t operator()(const ChannelKey& key) const noexcept;
  };

  void index_insert(TimeIndex& index, RecordRef ref) const;
  void index_record(RouterIndex& local, RecordRef ref, const IoRecord& record);
  /// The indexed record closest to `before`: the latest at or before it
  /// (within `window`) or the earliest after it (within `slack`); the
  /// at-or-before one wins ties. `index` may be null (nothing filed).
  const IoRecord* nearest(const TimeIndex* index, SimTime before, SimTime window,
                          SimTime slack) const;

  std::uint32_t intern(const std::string& text);
  std::uint32_t prefix_content_id(const std::optional<Prefix>& prefix);
  ChannelKey channel_of(const IoRecord& record, bool is_send);

  void match_as_effect(const RouterIndex& local, const IoRecord& record,
                       std::vector<InferredHbr>& out) const;
  void match_channels(RecordRef self, const IoRecord& record, std::vector<InferredHbr>& out);
  void match_as_late_cause(const IoRecord& record, std::vector<InferredHbr>& out);

  MatcherOptions options_;
  bool channel_matching_ = true;
  const std::vector<IoRecord>* external_ = nullptr;
  std::deque<IoRecord> owned_;  // fallback copies (no store / foreign records)
  std::unordered_map<RouterId, RouterIndex> routers_;
  std::unordered_map<ChannelKey, Channel, ChannelKeyHash> channels_;
  /// One id space for OSPF LSA text and prefix text, so a channel's content
  /// id equals another's exactly when channel_key()'s content text does.
  std::unordered_map<std::string, std::uint32_t> content_ids_;
  /// prefix_key → content id: to_string runs once per distinct prefix.
  std::unordered_map<std::uint64_t, std::uint32_t> prefix_content_ids_;
  /// Recent effects that could still acquire a better/late cause, kept for
  /// the slack horizon.
  std::deque<RecordRef> recent_effects_;
  std::size_t records_seen_ = 0;
};

}  // namespace hbguard
