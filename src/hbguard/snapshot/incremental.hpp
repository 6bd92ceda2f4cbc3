// HBG-consistent data-plane snapshots (§5, §7).
//
// "To obtain a consistent snapshot — one that reflects the FIB entries a
// packet would encounter as it traverses the network at a specific instance
// in time — we simply need to ensure that if a FIB snapshot from one router
// was taken after applying a route update U, then the FIB snapshot from
// every other router that had previously received U must also have been
// taken after applying U."
//
// The snapshotter reconstructs every router's FIB by replaying its FIB-update
// I/Os up to a per-router cut, then enforces happens-before closure: if an
// included I/O has an HBG predecessor that is known but beyond its own
// router's cut, the *including* router is rewound past the dependent I/O —
// the equivalent of the verifier "waiting until it receives the up-to-date
// HBG" in the paper's §7 example. Received advertisements without a matching
// send in the HBG likewise signal missing I/Os and trigger a rewind.
//
// Two entry points share the closure, its fixpoint and the in-flux pass:
//
//   - ingest() maintains the snapshot *across* scans. It takes only the
//     records captured since the previous scan, folds them into the
//     persistent per-router views in place (ViewFold: one FibTable batch
//     per changed router per scan), and re-checks only the log ranges whose verdict
//     could have changed — each router's pending suffix (records past its
//     validated frontier) plus any record that gained an incoming HBG edge
//     since the last scan. Every known record is tentatively included.
//   - build() is a one-shot cut at per-router horizons (records logged after
//     a router's horizon have not reached the collector yet): each router's
//     tentative frontier is capped at its horizon while the records past the
//     cap stay known, so a cause among them still rewinds its dependents.
//
// Why re-checking a suffix is enough (and when it is not): the closure's
// fixpoint is the *greatest* frontier vector under which no included record
// depends on a known-but-excluded cause and no included internal receive
// lacks a matching send. Records validated by the previous fixpoint stay
// valid as long as (a) their in-edge sets are unchanged and (b) no router's
// frontier drops below its previous stable frontier — both
// monotone-preserving conditions. New edges targeting the stable region void
// (a) for those records, so their positions are re-checked; if any re-check
// (or cascade) rewinds a router *below* its stable frontier, condition (b) is
// void for everyone and the snapshotter falls back to the full closure for
// that scan (counted in Stats::closure_fallbacks), rebuilding a view from
// empty where the frontier regressed. Every scan's snapshot is therefore
// byte-identical to build() over the full history with empty horizons.
//
// Records are not copied: each router's log holds record ids, resolved
// through the graph each call receives (the capture store owns the records).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "hbguard/hbg/graph.hpp"
#include "hbguard/snapshot/snapshot.hpp"

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

/// The happens-before closure's settings, shared by every snapshot a
/// pipeline takes (maintained or one-shot).
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

class IncrementalSnapshotter {
 public:
  using Options = ConsistencyOptions;

  struct Stats {
    std::size_t scans = 0;             // ingest() calls
    std::size_t records_ingested = 0;  // cumulative records folded in
    std::size_t closure_checks = 0;    // record inspections across all closures
    std::size_t closure_fallbacks = 0; // scans that re-ran the closure from scratch
    std::size_t rebuilt_routers = 0;   // replay states rebuilt after a frontier regression
    std::size_t full_deltas = 0;       // scans whose SnapshotDelta degraded to `full`
  };

  IncrementalSnapshotter() = default;
  explicit IncrementalSnapshotter(Options options) : options_(options) {}

  /// Fold the records captured since the previous call (capture order) and
  /// the HBG edges added since then into the maintained snapshot, and
  /// return it. `hbg` must be the live graph containing every ingested
  /// record; the cut is the full-horizon one (every known record is
  /// tentatively included). When `delta` is non-null it is filled with what
  /// changed relative to the previous snapshot. When `report` is non-null
  /// the consistency diagnostics are computed (the in-flux pass walks the
  /// full history — request it for debugging, not on the hot path; its
  /// `iterations`/`unmatched_recvs` counters cover this scan's closure work
  /// only, while `rewound` and `in_flux` match build()'s). `lossy_routers`
  /// (from StreamHealthTracker::lossy_routers) names streams with records
  /// dropped for good — closure then tells lost sends from in-flight ones
  /// instead of rewinding their receivers forever; null keeps the strict
  /// behaviour. The set may only grow between calls (StreamHealthTracker
  /// membership is permanent), which keeps the stable-frontier argument
  /// valid — a record admitted under the lost-send presumption can never
  /// turn bad again.
  const DataPlaneSnapshot& ingest(std::span<const IoRecord> new_records,
                                  const HappensBeforeGraph& hbg,
                                  std::span<const HbgEdge> new_edges,
                                  SnapshotDelta* delta = nullptr,
                                  ConsistencyReport* report = nullptr,
                                  const std::set<RouterId>* lossy_routers = nullptr);

  /// One-shot consistent snapshot of `records` cut at per-router
  /// `horizons` (logged time); routers absent from the map are taken in
  /// full. The records may come in any order: each router's log is sorted
  /// by router_seq. `hbg` must contain every record of `records`.
  /// `report` and `lossy_routers` are as for ingest().
  static DataPlaneSnapshot build(const Options& options, std::span<const IoRecord> records,
                                 const HappensBeforeGraph& hbg,
                                 const std::map<RouterId, SimTime>& horizons,
                                 ConsistencyReport* report = nullptr,
                                 const std::set<RouterId>* lossy_routers = nullptr);

  /// The snapshot as of the last ingest (empty before the first).
  const DataPlaneSnapshot& snapshot() const { return snapshot_; }

  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct RouterState {
    std::vector<IoId> log;  // router_seq (= capture) order
    /// Validated frontier after the last closure: records below it passed
    /// closure and are folded into the router's snapshot view.
    std::size_t stable = 0;
    /// The closure's tentative frontier: the whole log, or a one-shot
    /// cut's horizon cap. `rewound` counts from here.
    std::size_t cap = 0;
    /// The closure's working frontier, and the lowest index it re-checks.
    std::size_t frontier = 0;
    std::size_t check_from = 0;
    /// Latest logged_time in `log` (monotone; drives the lost-send
    /// presumption).
    SimTime latest_logged = 0;
  };
  /// Where a record sits: its router's slot in `states_` and its index in
  /// that router's log.
  struct Position {
    std::uint32_t slot = kNoSlot;
    std::uint32_t index = 0;
  };
  struct Closure {
    std::size_t iterations = 0;
    std::size_t unmatched_recvs = 0;
    bool fell_back = false;
  };

  /// Append one record to its router's log; true when the router is new.
  bool append(const IoRecord& record);
  bool known(IoId id) const { return id < position_.size() && position_[id].slot != kNoSlot; }
  bool included(IoId id) const {
    return known(id) && position_[id].index < states_[position_[id].slot].frontier;
  }
  /// Whether `r` must be excluded under the current frontiers: a known
  /// cause lies beyond its router's frontier, or an internal receive has
  /// no matching send that could still arrive.
  bool breaks_closure(const IoRecord& r, const HappensBeforeGraph& hbg,
                      const std::set<RouterId>* lossy_routers, Closure& closure);
  /// Run the closure from every router's `cap`, checking records from
  /// `check_from` up; a rewind below a stable frontier re-runs it over
  /// whole logs.
  Closure close(const HappensBeforeGraph& hbg, const std::set<RouterId>* lossy_routers);
  /// Fold each router's [stable, frontier) into its view; a frontier below
  /// `stable` rebuilds that view from empty.
  void commit(const HappensBeforeGraph& hbg, SnapshotDelta* delta);
  /// Fill `report` from the last closure, including the in-flux pass.
  void fill_report(const HappensBeforeGraph& hbg, const Closure& closure,
                   ConsistencyReport& report) const;

  Options options_;
  Stats stats_;
  std::vector<RouterState> states_;          // by slot, in order of first appearance
  std::map<RouterId, std::uint32_t> slots_;  // router -> slot; iterated in router order
  std::vector<Position> position_;           // by IoId
  DataPlaneSnapshot snapshot_;
};

}  // namespace hbguard
