// Capture hub and per-router taps (§4.2 "Tracking HBRs").
//
// "Most commercial router platforms provide a mechanism for logging control
// plane I/Os locally or to a remote server" — the CaptureHub plays the role
// of that remote log collector. Each router shell records through a
// RouterTap, which applies the imperfections real logging has: timestamp
// jitter (per-record clock error) and record loss. Ground-truth fields pass
// through untouched so experiments can score inference quality.
//
// Between stamping and storage a record may traverse a CaptureTransport
// (e.g. fault/DeliveryChannel), which models the network leg of remote
// logging: delay, reordering, duplication, and outage-window loss. Records
// re-enter the hub through deliver(), where an optional StreamHealthTracker
// re-sequences them per router so the append-only store keeps its per-router
// seq-order invariant even when delivery does not.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "hbguard/capture/io_record.hpp"
#include "hbguard/capture/stream_health.hpp"
#include "hbguard/util/rng.hpp"

namespace hbguard {

struct CaptureOptions {
  /// Per-record timestamp noise (uniform in [-jitter, +jitter]); models
  /// queuing between the event and the log write. 0 = exact.
  SimTime timestamp_jitter_us = 0;
  /// Per-router constant clock offset (uniform in [-offset, +offset], drawn
  /// once per router); models unsynchronized clocks across devices.
  SimTime clock_offset_us = 0;
  /// Probability an I/O record is silently dropped by the logger.
  double loss_probability = 0.0;
};

/// Delivery leg between stamping and the hub's store. Implementations own
/// the record until they hand it back via CaptureHub::deliver().
class CaptureTransport {
 public:
  virtual ~CaptureTransport() = default;
  virtual void submit(IoRecord record) = 0;
};

class RecordSlice;

class CaptureHub {
 public:
  explicit CaptureHub(CaptureOptions options = {}, std::uint64_t seed = 1)
      : options_(options), rng_(seed) {}

  /// Record an I/O. Fills id, logged_time and router_seq. Returns the
  /// assigned id even if the record is then lost (the event still happened;
  /// only its log entry vanished).
  IoId record(IoRecord record);

  /// A transport-delivered record arriving at the collector. Admitted via
  /// the stream-health tracker when one is enabled, else appended directly.
  void deliver(IoRecord record, SimTime now);

  /// Every record that survived logging, in capture order.
  const std::vector<IoRecord>& records() const { return records_; }

  /// Records captured at position `offset` onward — the delta an online
  /// consumer (the guard's incremental pipeline) has not seen yet. The
  /// capture is append-only, so `offset = records().size()` taken after a
  /// call yields exactly the new records on the next call. The slice is
  /// invalidated by the next append (the vector may reallocate); debug
  /// builds assert on use-after-append via a generation counter.
  RecordSlice records_since(std::size_t offset) const;

  /// Number of events that occurred (including lost ones).
  std::uint64_t events_seen() const { return next_id_ - 1; }
  std::uint64_t events_lost() const { return lost_; }

  /// True iff the most recent record() call dropped its record
  /// (loss_probability). Lets the shell reproduce "was it logged?"
  /// decisions without re-querying the store.
  bool last_record_lost() const { return last_lost_; }

  /// Bumps on every append to the store; RecordSlice uses it to detect
  /// use-after-append in debug builds.
  std::uint64_t generation() const { return generation_; }

  /// Subscribe to records as they are captured (e.g. the online guard
  /// pipeline). Lost records are not delivered.
  void subscribe(std::function<void(const IoRecord&)> listener) {
    listeners_.push_back(std::move(listener));
  }

  void set_options(CaptureOptions options) { options_ = options; }

  /// Route future records through `transport` (nullptr restores synchronous
  /// append). Not owned; must outlive its installation.
  void set_transport(CaptureTransport* transport) { transport_ = transport; }

  /// Enable per-router stream-health admission (gap/duplicate/late handling)
  /// for delivered records. Streams are primed with the current per-router
  /// seq counters so pre-existing history is not treated as one giant gap.
  void enable_stream_health(StreamHealthOptions options = {});

  /// The health tracker, or nullptr when stream health is disabled.
  const StreamHealthTracker* health() const { return health_.get(); }

  /// Expire gap grace windows at virtual time `now` (releases abandoned
  /// buffers into the store). No-op when stream health is disabled.
  void tick_health(SimTime now);

 private:
  SimTime router_clock_offset(RouterId router);
  void append(IoRecord record);

  CaptureOptions options_;
  Rng rng_;
  std::vector<IoRecord> records_;
  std::vector<std::uint64_t> per_router_seq_;
  std::vector<SimTime> per_router_offset_;
  std::vector<bool> offset_drawn_;
  std::vector<std::function<void(const IoRecord&)>> listeners_;
  CaptureTransport* transport_ = nullptr;
  std::unique_ptr<StreamHealthTracker> health_;
  IoId next_id_ = 1;
  std::uint64_t lost_ = 0;
  std::uint64_t generation_ = 0;
  bool last_lost_ = false;
};

/// A view of a contiguous run of the hub's record store. Behaves like
/// std::span<const IoRecord>, but remembers the hub generation it was taken
/// at and (in debug builds) asserts if dereferenced after a later append
/// invalidated it.
class RecordSlice {
 public:
  RecordSlice() = default;
  RecordSlice(const CaptureHub* hub, std::size_t offset, std::size_t size,
              std::uint64_t generation)
      : hub_(hub), offset_(offset), size_(size), generation_(generation) {}

  const IoRecord* data() const {
    assert(valid() && "RecordSlice used after CaptureHub append");
    return hub_ == nullptr ? nullptr : hub_->records().data() + offset_;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const IoRecord* begin() const { return data(); }
  const IoRecord* end() const { return data() + size_; }
  const IoRecord& operator[](std::size_t i) const { return data()[i]; }
  const IoRecord& front() const { return data()[0]; }
  const IoRecord& back() const { return data()[size_ - 1]; }

  RecordSlice subspan(std::size_t offset) const {
    if (offset >= size_) return RecordSlice(hub_, offset_ + size_, 0, generation_);
    return RecordSlice(hub_, offset_ + offset, size_ - offset, generation_);
  }

  /// Still safe to dereference (no append since it was taken)?
  bool valid() const { return hub_ == nullptr || generation_ == hub_->generation(); }

  operator std::span<const IoRecord>() const {
    return std::span<const IoRecord>(data(), size_);
  }

 private:
  const CaptureHub* hub_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
  std::uint64_t generation_ = 0;
};

inline RecordSlice CaptureHub::records_since(std::size_t offset) const {
  if (offset >= records_.size()) {
    return RecordSlice(this, records_.size(), 0, generation_);
  }
  return RecordSlice(this, offset, records_.size() - offset, generation_);
}

/// A router's handle on the hub: stamps the router id and true time.
class RouterTap {
 public:
  RouterTap(CaptureHub* hub, RouterId router) : hub_(hub), router_(router) {}

  /// Record an I/O happening now (true_time supplied by the shell).
  IoId record(IoRecord record) {
    record.router = router_;
    return hub_->record(std::move(record));
  }

  RouterId router() const { return router_; }

 private:
  CaptureHub* hub_;
  RouterId router_;
};

}  // namespace hbguard
