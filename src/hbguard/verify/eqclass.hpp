// Packet equivalence classes over a data-plane snapshot (§6, citing [7]).
//
// "Control plane computations tend to be highly repetitive across prefixes.
// Many destinations are treated alike by the network control plane and can
// therefore be grouped into few equivalence classes. Studies have shown
// that even large networks (100K prefixes) often have less than 15
// equivalence classes in total."
//
// The computation partitions the 32-bit destination space into atomic
// intervals induced by every FIB prefix in the snapshot, evaluates each
// interval's network-wide forwarding behaviour (per-router action vector),
// and groups intervals with identical behaviour.
//
// Internally behaviours are interned *semantic tokens* (one u32 per router
// per interval) rather than signature strings, so million-prefix tables
// cost megabytes, not gigabytes; the string signatures the early-block
// model keys on are materialized once per class in exactly the legacy
// format. StreamingEquivalenceClasses maintains the same partition
// incrementally under SnapshotDelta churn: changed prefixes split/merge
// only the affected atomic intervals and re-evaluate only the dirty ones,
// with a full O(intervals) materialization pass guaranteeing
// the emitted classes are byte-identical to the batch computation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "hbguard/snapshot/snapshot.hpp"
#include "hbguard/verify/traffic.hpp"

namespace hbguard {

class ThreadPool;

struct EquivalenceClass {
  /// Atomic [start, end] address intervals (inclusive) in this class.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> intervals;
  /// The shared behaviour: per-router forwarding signature.
  std::string signature;
  /// A representative destination inside the class.
  IpAddress representative;
  /// Total addresses covered.
  std::uint64_t size = 0;
  /// Aggregate demand of the live prefixes rooted in this class (each
  /// present prefix contributes its TrafficWeights entry to the class
  /// containing its network address). 0 unless weights were attached;
  /// summed across classes this conserves the present prefixes' total
  /// weight exactly.
  std::uint64_t traffic_weight = 0;
};

struct EquivalenceClasses {
  std::vector<EquivalenceClass> classes;
  std::size_t atomic_intervals = 0;

  /// Index of the class containing `ip`; classes are disjoint and total.
  std::size_t class_of(IpAddress ip) const;
};

/// Compute the network-wide forwarding equivalence classes of a snapshot.
/// With a pool, the atomic intervals are partitioned into per-thread
/// batches whose behaviour rows are computed concurrently; the grouping
/// pass runs in interval order either way, so the classes (and their
/// order) are identical to the serial result.
EquivalenceClasses compute_equivalence_classes(const DataPlaneSnapshot& snapshot,
                                               ThreadPool* pool = nullptr);

/// As above, additionally aggregating `weights` onto each class's
/// traffic_weight (see EquivalenceClass::traffic_weight).
EquivalenceClasses compute_equivalence_classes(
    const DataPlaneSnapshot& snapshot, std::shared_ptr<const TrafficWeights> weights,
    ThreadPool* pool = nullptr);

struct StreamingEcStats {
  std::uint64_t rebuilds = 0;            // full (batch-equivalent) builds
  std::uint64_t incremental_updates = 0; // delta-driven updates
  std::uint64_t splits = 0;              // atomic-interval boundary insertions
  std::uint64_t merges = 0;              // atomic-interval boundary removals
  std::uint64_t dirty_intervals = 0;     // interval rows re-evaluated (cumulative)
  std::uint64_t reused_intervals = 0;    // interval rows carried over (cumulative)
};

/// Equivalence classes maintained incrementally under snapshot churn.
///
/// State: the sorted atomic-interval boundary points with per-point
/// refcounts (how many live prefixes contribute each point), the presence
/// set of prefixes, and one interned token row per distinct behaviour.
/// update() with a non-full delta only (a) recounts presence for the
/// changed prefixes, (b) splices boundary insertions/removals with one
/// merge pass, and (c) re-evaluates rows for intervals overlapping a
/// changed prefix — everything else carries over. A full delta (or a
/// router-set change) falls back to rebuild().
///
/// classes() renumbers classes by first appearance in interval order, so
/// its result is byte-identical to compute_equivalence_classes() on the
/// same snapshot — the differential tests and bench_internet_scale gate
/// on exactly that.
class StreamingEquivalenceClasses {
 public:
  /// Discard all state and rebuild from `snapshot` (batch equivalent).
  void rebuild(const DataPlaneSnapshot& snapshot, ThreadPool* pool = nullptr);

  /// Fold one scan's delta in. Full deltas (and the first call) rebuild.
  void update(const DataPlaneSnapshot& snapshot, const SnapshotDelta& delta,
              ThreadPool* pool = nullptr);

  /// Materialize the current partition (legacy format, batch-identical).
  EquivalenceClasses classes() const;

  /// Attach per-prefix demand: every materialization aggregates each live
  /// prefix's weight onto the class containing its network address. Null
  /// detaches (classes report traffic_weight 0). Weights do not affect the
  /// partition, signatures, or class order — only the aggregate field.
  void set_traffic_weights(std::shared_ptr<const TrafficWeights> weights) {
    traffic_weights_ = std::move(weights);
  }
  const std::shared_ptr<const TrafficWeights>& traffic_weights() const {
    return traffic_weights_;
  }

  bool ready() const { return ready_; }
  std::size_t atomic_intervals() const { return bounds_.size(); }
  const StreamingEcStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kDirty = 0xffffffffu;

  std::uint32_t token_of(const FibEntry* entry);
  /// Re-evaluate rows for `dirty` interval indices (parallel lookups,
  /// serial interning) and write their class keys into interval_class_.
  void recompute_rows(const DataPlaneSnapshot& snapshot, ThreadPool* pool,
                      const std::vector<std::uint32_t>& dirty);
  std::uint32_t intern_row(const std::vector<std::uint32_t>& row);

  struct RowHash {
    std::size_t operator()(const std::vector<std::uint32_t>& row) const {
      std::size_t h = 1469598103934665603ull;
      for (std::uint32_t v : row) {
        h ^= v;
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  bool ready_ = false;
  std::vector<RouterId> routers_;           // ascending, fixed per rebuild
  std::vector<Prefix> present_;             // sorted union of live prefixes
  /// Sorted (boundary point, refcount): how many live prefixes start or
  /// end at this address. Point 0 is implicit in bounds_ regardless.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> refs_;
  std::vector<std::uint32_t> bounds_;         // interval starts, sorted, [0] == 0
  std::vector<std::uint32_t> interval_class_; // per interval: key into rows_

  std::vector<std::vector<std::uint32_t>> rows_;  // per class key: token row
  std::unordered_map<std::vector<std::uint32_t>, std::uint32_t, RowHash> row_ids_;

  // Semantic-token interner. Fixed ids: 0 = "-" (no route), 1 = "L", 2 = "D".
  std::vector<std::string> token_text_;
  std::unordered_map<std::uint32_t, std::uint32_t> forward_tokens_;  // next_hop -> id
  std::unordered_map<std::string, std::uint32_t> external_tokens_;   // session -> id

  std::shared_ptr<const TrafficWeights> traffic_weights_;
  StreamingEcStats stats_;
};

}  // namespace hbguard
