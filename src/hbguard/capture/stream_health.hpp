// Per-router capture stream health (gap / duplicate / late-arrival repair).
//
// The hub's replay machinery (snapshot/incremental.*) depends
// on one invariant: within the store, a router's records appear in
// router_seq order. A transport that delays, reorders, duplicates, or drops
// records breaks that at the collector's doorstep. This tracker sits at
// admission: duplicates are dropped, out-of-order arrivals are buffered and
// released in sequence, and a gap that outlives its grace window is
// abandoned — the missing seqs are declared lost and, if state-bearing
// records may have vanished, the stream is quarantined until the router
// dumps a fib_reset checkpoint that makes the replayed view trustworthy
// again. The guard consults the resulting health state machine
// (healthy → suspect → quarantined → healthy) to decide when verdicts for a
// router's destinations must degrade to "unknown" instead of PASS/FAIL.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string_view>

#include "hbguard/capture/io_record.hpp"

namespace hbguard {

struct StreamHealthOptions {
  /// How long a seq gap may stay open (buffering newer records) before the
  /// tracker gives up waiting for the missing records.
  SimTime gap_grace_us = 150'000;
  /// Abandon a gap early if a router buffers more than this many records
  /// behind it, regardless of the grace window.
  std::size_t max_buffered_per_router = 4096;
};

enum class StreamState : std::uint8_t {
  kHealthy,      // in sequence; verdicts are trustworthy
  kSuspect,      // open gap, newer records buffered; view is stale
  kQuarantined,  // records lost for good; replayed state untrusted until a
                 // fib_reset checkpoint arrives
};

std::string_view to_string(StreamState state);

struct StreamHealthStats {
  std::uint64_t gaps_detected = 0;
  std::uint64_t gaps_healed = 0;     // closed by the missing records arriving
  std::uint64_t gaps_abandoned = 0;  // closed by giving up
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t late_dropped = 0;    // arrived after their gap was abandoned
  std::uint64_t reordered = 0;       // arrived ahead of sequence, buffered
  std::uint64_t records_lost = 0;    // seqs declared lost by abandonment
  std::uint64_t quarantines = 0;
  std::uint64_t resyncs = 0;         // fib_reset checkpoints released
};

class StreamHealthTracker {
 public:
  using Sink = std::function<void(IoRecord)>;

  explicit StreamHealthTracker(StreamHealthOptions options = {})
      : options_(options) {}

  /// Tell the tracker a router's next expected seq (used when health is
  /// enabled mid-run: history already in the store must not read as a gap).
  void prime(RouterId router, std::uint64_t next_seq);

  /// Admit one delivered record. In-order records (and any buffered records
  /// they unblock) are passed to `sink` immediately; out-of-order records
  /// are buffered; duplicates and too-late records are dropped.
  void admit(IoRecord record, SimTime now, const Sink& sink);

  /// Expire gap grace windows as of `now`, releasing abandoned buffers.
  void tick(SimTime now, const Sink& sink);

  StreamState state(RouterId router) const;
  /// Routers whose streams have ever had records declared lost. Unlike the
  /// per-stream `lost` set (cleared when a checkpoint supersedes the
  /// losses), membership is permanent: consumers use it to tell "this
  /// record's missing cause was dropped in capture" from "still in
  /// flight".
  std::set<RouterId> lossy_routers() const;
  bool any_quarantined() const;
  /// Any stream not kHealthy (open gap or quarantine) — the guard's
  /// "verdicts would be built on an unreliable view" predicate.
  bool any_degraded() const;
  /// Monotone count of state-machine transitions; lets a consumer detect
  /// "health flipped since I last looked" without subscribing.
  std::uint64_t transitions() const { return transitions_; }
  const StreamHealthStats& stats() const { return stats_; }

 private:
  struct Stream {
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, IoRecord> buffered;  // seq → record, ahead of next_seq
    SimTime gap_opened_at = 0;
    StreamState state = StreamState::kHealthy;
    /// Seqs abandoned, as [first, end) ranges keyed by first, so a gap
    /// costs one entry however wide it is; late arrivals of these are
    /// counted late, not duplicate, and split their range.
    std::map<std::uint64_t, std::uint64_t> lost;
    std::uint64_t total_lost = 0;  // cumulative; never reset by checkpoints
  };

  void set_state(RouterId router, Stream& stream, StreamState to);
  void release(RouterId router, Stream& stream, IoRecord record, const Sink& sink);
  void drain(RouterId router, Stream& stream, const Sink& sink);
  void abandon_gap(RouterId router, Stream& stream, const Sink& sink, SimTime now);

  StreamHealthOptions options_;
  StreamHealthStats stats_;
  std::map<RouterId, Stream> streams_;
  std::uint64_t transitions_ = 0;
};

}  // namespace hbguard
