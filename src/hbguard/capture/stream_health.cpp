#include "hbguard/capture/stream_health.hpp"

#include <utility>

#include "hbguard/util/logging.hpp"

namespace hbguard {

namespace {

/// Take `seq` out of the [first, end) ranges in `lost`, splitting the range
/// that holds it; false when no range does.
bool take_lost(std::map<std::uint64_t, std::uint64_t>& lost, std::uint64_t seq) {
  auto it = lost.upper_bound(seq);
  if (it == lost.begin()) return false;
  --it;
  const auto [first, end] = *it;
  if (seq >= end) return false;
  lost.erase(it);
  if (first < seq) lost.emplace(first, seq);
  if (seq + 1 < end) lost.emplace(seq + 1, end);
  return true;
}

}  // namespace

std::string_view to_string(StreamState state) {
  switch (state) {
    case StreamState::kHealthy: return "healthy";
    case StreamState::kSuspect: return "suspect";
    case StreamState::kQuarantined: return "quarantined";
  }
  return "?";
}

void StreamHealthTracker::prime(RouterId router, std::uint64_t next_seq) {
  streams_[router].next_seq = next_seq;
}

void StreamHealthTracker::set_state(RouterId router, Stream& stream, StreamState to) {
  if (stream.state == to) return;
  HBG_WARN_EVERY_N(64) << "capture stream R" << router << ": "
                       << to_string(stream.state) << " -> " << to_string(to);
  stream.state = to;
  ++transitions_;
}

void StreamHealthTracker::release(RouterId router, Stream& stream, IoRecord record,
                                  const Sink& sink) {
  stream.next_seq = record.router_seq + 1;
  const bool reset = record.fib_reset;
  sink(std::move(record));
  if (reset) {
    ++stats_.resyncs;
    // A checkpoint supersedes everything before it: earlier losses no
    // longer matter, so a quarantined stream becomes trustworthy again.
    stream.lost.clear();
    if (stream.state == StreamState::kQuarantined) {
      set_state(router, stream, StreamState::kHealthy);
    }
  }
}

void StreamHealthTracker::drain(RouterId router, Stream& stream, const Sink& sink) {
  while (!stream.buffered.empty() &&
         stream.buffered.begin()->first == stream.next_seq) {
    auto it = stream.buffered.begin();
    IoRecord record = std::move(it->second);
    stream.buffered.erase(it);
    release(router, stream, std::move(record), sink);
  }
  if (stream.buffered.empty() && stream.state == StreamState::kSuspect) {
    ++stats_.gaps_healed;
    set_state(router, stream, StreamState::kHealthy);
  }
}

void StreamHealthTracker::abandon_gap(RouterId router, Stream& stream, const Sink& sink,
                                      SimTime now) {
  ++stats_.gaps_abandoned;
  // Flush up to the last buffered checkpoint, if any: it supersedes the
  // missing records below it, while seqs above it may simply still be in
  // flight — declaring those lost would quarantine a stream the checkpoint
  // just made trustworthy. They form a fresh gap with its own grace window.
  // Without a checkpoint (grace expiry) everything buffered is flushed.
  std::uint64_t stop = stream.buffered.rbegin()->first;
  for (const auto& [seq, record] : stream.buffered) {
    if (record.fib_reset) stop = seq;  // last checkpoint wins
  }
  bool corrupted = false;
  while (!stream.buffered.empty()) {
    auto it = stream.buffered.begin();
    if (it->first > stop && it->first != stream.next_seq) break;
    if (stream.next_seq < it->first) {
      const std::uint64_t missing = it->first - stream.next_seq;
      stream.lost.emplace(stream.next_seq, it->first);
      stats_.records_lost += missing;
      stream.total_lost += missing;
      stream.next_seq = it->first;
      corrupted = true;
    }
    IoRecord record = std::move(it->second);
    stream.buffered.erase(it);
    if (record.fib_reset) corrupted = false;  // checkpoint supersedes the losses
    release(router, stream, std::move(record), sink);
  }
  if (corrupted) {
    if (stream.state != StreamState::kQuarantined) {
      ++stats_.quarantines;
      HBG_WARN_EVERY_N(16) << "capture stream R" << router
                           << ": gap abandoned with records lost, quarantining";
      set_state(router, stream, StreamState::kQuarantined);
    }
  } else if (!stream.buffered.empty()) {
    stream.gap_opened_at = now;  // the residual gap waits out its own grace
    set_state(router, stream, StreamState::kSuspect);
  } else if (stream.state != StreamState::kHealthy) {
    set_state(router, stream, StreamState::kHealthy);
  }
}

void StreamHealthTracker::admit(IoRecord record, SimTime now, const Sink& sink) {
  Stream& stream = streams_[record.router];
  const RouterId router = record.router;
  const std::uint64_t seq = record.router_seq;

  if (seq < stream.next_seq) {
    if (take_lost(stream.lost, seq)) {
      ++stats_.late_dropped;
      HBG_WARN_EVERY_N(256) << "capture stream R" << router << ": record seq "
                            << seq << " arrived after its gap was abandoned";
    } else {
      ++stats_.duplicates_dropped;
      HBG_WARN_EVERY_N(256) << "capture stream R" << router
                            << ": duplicate record seq " << seq;
    }
    return;
  }

  if (seq == stream.next_seq) {
    release(router, stream, std::move(record), sink);
    drain(router, stream, sink);
    return;
  }

  // Ahead of sequence: a gap is (or stays) open.
  const bool gap_opens = stream.buffered.empty();
  const bool is_reset = record.fib_reset;
  auto [it, inserted] = stream.buffered.emplace(seq, std::move(record));
  if (!inserted) {
    ++stats_.duplicates_dropped;
    return;
  }
  ++stats_.reordered;
  if (gap_opens) {
    stream.gap_opened_at = now;
    ++stats_.gaps_detected;
    HBG_WARN_EVERY_N(64) << "capture stream R" << router << ": gap opened at seq "
                         << stream.next_seq << " (got " << seq << ")";
    if (stream.state == StreamState::kHealthy) {
      set_state(router, stream, StreamState::kSuspect);
    }
  }
  // A buffered checkpoint makes everything behind the gap irrelevant — no
  // point waiting out the grace window for records the checkpoint would
  // supersede anyway.
  if (is_reset || stream.buffered.size() > options_.max_buffered_per_router) {
    abandon_gap(router, stream, sink, now);
  }
}

void StreamHealthTracker::tick(SimTime now, const Sink& sink) {
  for (auto& [router, stream] : streams_) {
    if (!stream.buffered.empty() &&
        now - stream.gap_opened_at >= options_.gap_grace_us) {
      abandon_gap(router, stream, sink, now);
    }
  }
}

StreamState StreamHealthTracker::state(RouterId router) const {
  auto it = streams_.find(router);
  return it == streams_.end() ? StreamState::kHealthy : it->second.state;
}

std::set<RouterId> StreamHealthTracker::lossy_routers() const {
  std::set<RouterId> lossy;
  for (const auto& [router, stream] : streams_) {
    if (stream.total_lost > 0) lossy.insert(router);
  }
  return lossy;
}

bool StreamHealthTracker::any_quarantined() const {
  for (const auto& [router, stream] : streams_) {
    if (stream.state == StreamState::kQuarantined) return true;
  }
  return false;
}

bool StreamHealthTracker::any_degraded() const {
  for (const auto& [router, stream] : streams_) {
    if (stream.state != StreamState::kHealthy) return true;
  }
  return false;
}

}  // namespace hbguard
