// Delta-driven HBG-consistent snapshots (§5, §7).
//
// ConsistentSnapshotter rebuilds every router's FIB from the full capture
// history on each call, so a guarded run costs O(trace²). This snapshotter
// maintains the same snapshot *across* scans: it ingests only the records
// captured since the previous scan, folds them into the persistent
// per-router views in place (ViewFold: one merge per changed router per
// scan), and re-runs the happens-before closure only over the
// log ranges whose verdict could have changed — each router's pending
// suffix (records past its validated frontier) plus any record that gained
// an incoming HBG edge since the last scan.
//
// Why that is enough (and when it is not): with full horizons, the
// closure's fixpoint is the *greatest* frontier vector under which no
// included record depends on a known-but-excluded cause and no included
// internal receive lacks a matching send. Records validated by the
// previous fixpoint stay valid as long as (a) their in-edge sets are
// unchanged and (b) no router's frontier drops below its previous stable
// frontier — both monotone-preserving conditions. New edges targeting the
// stable region void (a) for those records, so their positions are
// re-checked; if any re-check (or cascade) rewinds a router *below* its
// stable frontier, condition (b) is void for everyone and the snapshotter
// falls back to a full scratch-equivalent closure for that scan (counted
// in Stats::closure_fallbacks), rebuilding a view from empty where the
// frontier regressed. The result is byte-identical to
// ConsistentSnapshotter::build over the full history with empty horizons,
// every scan.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "hbguard/hbg/graph.hpp"
#include "hbguard/snapshot/consistent.hpp"
#include "hbguard/snapshot/snapshot.hpp"

namespace hbguard {

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
  /// tentatively included, exactly like ConsistentSnapshotter with empty
  /// horizons). When `delta` is non-null it is filled with what changed
  /// relative to the previous snapshot. When `report` is non-null the
  /// consistency diagnostics are computed (the in-flux pass walks the full
  /// history — request it for debugging, not on the hot path; its
  /// `iterations`/`unmatched_recvs` counters cover this scan's closure
  /// work only, while `rewound` and `in_flux` match the scratch builder).
  /// `lossy_routers` mirrors ConsistentSnapshotter::build's parameter: the
  /// set may only grow between calls (StreamHealthTracker membership is
  /// permanent), which keeps the stable-frontier argument valid — a record
  /// admitted under the lost-send presumption can never turn bad again.
  const DataPlaneSnapshot& ingest(std::span<const IoRecord> new_records,
                                  const HappensBeforeGraph& hbg,
                                  std::span<const HbgEdge> new_edges,
                                  SnapshotDelta* delta = nullptr,
                                  ConsistencyReport* report = nullptr,
                                  const std::set<RouterId>* lossy_routers = nullptr);

  /// The snapshot as of the last ingest (empty before the first).
  const DataPlaneSnapshot& snapshot() const { return snapshot_; }

  const Stats& stats() const { return stats_; }

 private:
  struct RouterState {
    std::vector<IoRecord> log;  // owned copies, router_seq (= capture) order
    /// Validated frontier after the last ingest: records below it passed
    /// closure and are folded into the router's snapshot view.
    std::size_t stable = 0;
    /// Latest logged_time in `log` (monotone; drives the lost-send
    /// presumption exactly like the scratch builder's per-log maximum).
    SimTime latest_logged = 0;
  };

  Options options_;
  Stats stats_;
  std::map<RouterId, RouterState> routers_;
  /// Record id -> (router, log position); covers every ingested record.
  std::map<IoId, std::pair<RouterId, std::size_t>> position_;
  DataPlaneSnapshot snapshot_;
};

}  // namespace hbguard
