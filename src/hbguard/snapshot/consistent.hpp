// HBG-consistent data-plane snapshots (§5).
//
// "To obtain a consistent snapshot — one that reflects the FIB entries a
// packet would encounter as it traverses the network at a specific instance
// in time — we simply need to ensure that if a FIB snapshot from one router
// was taken after applying a route update U, then the FIB snapshot from
// every other router that had previously received U must also have been
// taken after applying U."
//
// The snapshotter reconstructs every router's FIB by replaying its reported
// FIB-update I/Os up to a per-router horizon (how much of that router's log
// the collector has received), then enforces happens-before closure: if an
// included I/O has an HBG predecessor that is beyond its own router's
// horizon, the *including* router is rewound past the dependent I/O — the
// equivalent of the verifier "waiting until it receives the up-to-date HBG"
// in the paper's §7 example. Received advertisements without a matching
// send in the HBG likewise signal missing I/Os and trigger a rewind.
#pragma once

#include <map>
#include <memory>
#include <span>

#include "hbguard/hbg/graph.hpp"
#include "hbguard/snapshot/snapshot.hpp"
#include "hbguard/util/thread_pool.hpp"

namespace hbguard {

struct ConsistencyReport {
  /// Records excluded per router to restore consistency.
  std::map<RouterId, std::size_t> rewound;
  /// Received advertisements whose send was not found in the HBG.
  std::size_t unmatched_recvs = 0;
  /// Fixpoint iterations used.
  std::size_t iterations = 0;
  /// Prefixes with updates still in flight at the cut: an included internal
  /// send whose matching receive lies beyond the peer's frontier. HB-closure
  /// keeps the cut causally consistent, but *concurrent* updates to the same
  /// prefix can still mix epochs across routers; §5's remedy is to wait, so
  /// verdicts for these prefixes should be deferred to the next snapshot.
  std::set<Prefix> in_flux;

  std::size_t total_rewound() const {
    std::size_t sum = 0;
    for (const auto& [router, count] : rewound) sum += count;
    return sum;
  }
};

/// The happens-before closure's settings. ConsistentSnapshotter and
/// IncrementalSnapshotter take the same struct, so a setting reaches
/// whichever snapshotter a pipeline runs.
struct ConsistencyOptions {
  /// Minimum edge confidence for closure checking (pattern-mined HBRs
  /// below this are ignored, per §4.2's confidence thresholding).
  double min_confidence = 0.9;
  /// Rewind past internal recvs with no matching send edge (§5: a
  /// missing output means "all router I/Os have not been received").
  bool require_send_for_recv = true;
  /// A send without a matched receive marks its prefix in-flux only while
  /// the peer's frontier is within this window of the send — older
  /// unmatched sends are presumed delivered (inference can miss an edge;
  /// real propagation completes in well under this bound).
  SimTime in_flux_window_us = 5'000'000;
  /// A recv whose send is absent is presumed *lost in capture* (rather
  /// than in flight) — and kept — when the sender is a known-lossy
  /// stream AND the sender's log extends at least this far past the
  /// recv: the hub admits per-router records in seq order, so once later
  /// records of the sender are stored the send can never arrive.
  SimTime lost_send_grace_us = 10'000;
};

class ConsistentSnapshotter {
 public:
  ConsistentSnapshotter() = default;
  explicit ConsistentSnapshotter(ConsistencyOptions options) : options_(options) {}

  /// Replay routers' FIBs on `pool`, shared with other pipeline stages (e.g.
  /// the Guard's verifier); without one, build() replays serially. The
  /// happens-before closure itself is sequential either way, and pooled and
  /// serial builds produce identical snapshots.
  void set_thread_pool(std::shared_ptr<ThreadPool> pool) { pool_ = std::move(pool); }

  /// Build a consistent snapshot from the full capture history. `horizons`
  /// gives the logged-time cut per router (records after it have not
  /// reached the collector yet); routers absent from the map are taken in
  /// full. Pass a report pointer for diagnostics. `lossy_routers` (from
  /// StreamHealthTracker::lossy_routers) names streams with records
  /// dropped for good — closure then distinguishes lost sends from
  /// in-flight ones instead of rewinding their receivers forever; null
  /// (the default, and any run without stream health) keeps the strict
  /// behaviour.
  DataPlaneSnapshot build(std::span<const IoRecord> records, const HappensBeforeGraph& hbg,
                          const std::map<RouterId, SimTime>& horizons,
                          ConsistencyReport* report = nullptr,
                          const std::set<RouterId>* lossy_routers = nullptr) const;

 private:
  ConsistencyOptions options_;
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace hbguard
