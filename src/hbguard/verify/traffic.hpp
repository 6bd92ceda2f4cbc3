// Traffic-weighted verification scheduling (ROADMAP: "serve millions of
// users by verifying what they use first").
//
// The verifier treats every destination as equally urgent; a
// network carrying real traffic does not. TrafficWeights attaches a demand
// weight (requests/sec, bytes/sec — any additive unit) to each prefix, and
// TrafficScheduler orders the verifier's per-scan work by the weight of the
// destinations it covers:
//
//   - kWeighted: heaviest destinations first, so a scan budget (a weight-
//     coverage target and/or a hard item cap) bounds *weighted* time-to-
//     detect: the p99 of detection latency, weighted by the traffic that
//     latency applies to, stays small even when a full sweep does not fit
//     the scan cadence. Aging guarantees no starvation: any destination
//     unverified for `aging_scans` verifying scans is scheduled ahead of
//     the hot set, so every item is verified at least every
//     aging_scans + ceil(N / budget) scans.
//   - kRoundRobin: least-recently-verified first (the unweighted baseline
//     bench_traffic_weighted compares against).
//
// All ordering ties break on destination id, so the planned set — and any
// order-sensitive statistic derived from it — is identical across thread
// counts and insertion orders. With the default options (full coverage, no
// cap) every destination is covered every scan and the planned set equals
// the unscheduled verifier's work exactly; GuardReport digests are
// byte-identical to the pre-scheduler pipeline in that configuration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "hbguard/net/ip.hpp"

namespace hbguard {

/// Additive per-prefix demand weights (e.g. from make_traffic_demand).
/// Unknown prefixes weigh 0 — they are still verified, last, via aging.
class TrafficWeights {
 public:
  void set(const Prefix& prefix, std::uint64_t weight);
  /// Exact-match weight; 0 when the prefix carries no known demand.
  std::uint64_t weight_of(const Prefix& prefix) const;
  std::uint64_t total() const { return total_; }
  std::size_t size() const { return weights_.size(); }

 private:
  std::map<Prefix, std::uint64_t> weights_;
  std::uint64_t total_ = 0;
};

enum class SchedulePolicy : std::uint8_t { kWeighted, kRoundRobin };

struct TrafficScheduleOptions {
  /// Master switch; when false the Guard plans nothing and behaves exactly
  /// as before this scheduler existed.
  bool enabled = false;
  SchedulePolicy policy = SchedulePolicy::kWeighted;
  /// Stop scheduling non-aged items once this fraction of the total traffic
  /// weight is covered (1.0 = cover everything; the default keeps reports
  /// byte-identical to the unscheduled pipeline).
  double coverage_target = 1.0;
  /// Hard cap on destinations per scan (0 = unlimited). Applies to aged
  /// items too — the starvation bound assumes N/max_items scans of slack.
  std::size_t max_items = 0;
  /// A destination unverified for this many verifying scans is "aged" and
  /// scheduled ahead of the hot set (no starvation).
  std::size_t aging_scans = 16;
  /// Per-prefix demand; null = uniform (every destination weighs 1).
  std::shared_ptr<const TrafficWeights> weights;
};

/// One scan's work split: what to verify now vs. what to defer.
struct ScheduledScan {
  std::vector<std::uint32_t> covered;   ///< destination bits, ascending
  std::vector<std::uint32_t> deferred;  ///< destination bits, ascending
  std::uint64_t covered_weight = 0;
  std::uint64_t total_weight = 0;
  std::size_t aged_in = 0;  ///< items scheduled by the aging guarantee

  bool full() const { return deferred.empty(); }
  double coverage() const {
    return total_weight == 0 ? 1.0
                             : static_cast<double>(covered_weight) /
                                   static_cast<double>(total_weight);
  }
};

/// Exact weighted histogram of verification gaps, in verifying scans: a
/// destination covered on consecutive scans records gap 1. Gap g bounds the
/// detection latency of any violation that appeared on that destination
/// since its previous verification, so the weighted percentile of this
/// histogram *is* the scheduler's time-to-detect SLA metric (multiply by
/// the scan cadence for wall-clock units).
class DetectionLatencyHistogram {
 public:
  void record(std::uint64_t gap, std::uint64_t weight);
  /// Smallest gap g such that >= p of the recorded weight lies at gaps
  /// <= g. p in [0, 1]; returns 0 when empty.
  std::uint64_t weighted_percentile(double p) const;
  std::uint64_t samples() const { return samples_; }
  std::uint64_t total_weight() const { return total_weight_; }
  std::uint64_t max_gap() const { return max_gap_; }

 private:
  std::map<std::uint64_t, std::uint64_t> weight_by_gap_;  // exact, gaps are small
  std::uint64_t samples_ = 0;
  std::uint64_t total_weight_ = 0;
  std::uint64_t max_gap_ = 0;
};

struct TrafficScheduleStats {
  std::uint64_t planned_scans = 0;
  std::uint64_t covered_items = 0;   // cumulative
  std::uint64_t deferred_items = 0;  // cumulative
  std::uint64_t aged_items = 0;      // cumulative aged-in count
  std::uint64_t last_deferred = 0;
  double last_coverage = 1.0;
};

/// Priority scheduler over the verifier's destination universe. The Guard
/// calls sync_items() with (destination bits, weight) each scan, plan() to
/// split the scan's work, and mark_verified() after the verifier ran.
///
/// Deterministic by construction: items are kept sorted by id, every
/// ordering breaks ties on id, and no wall-clock input exists — two
/// schedulers fed the same call sequence emit identical plans at any
/// thread count.
class TrafficScheduler {
 public:
  TrafficScheduler() = default;
  explicit TrafficScheduler(TrafficScheduleOptions options) : options_(std::move(options)) {}

  const TrafficScheduleOptions& options() const { return options_; }

  /// Replace the work universe. Items keep their aging state across syncs;
  /// new items start aged (never verified ranks ahead of the hot set). If
  /// every weight is 0 the scheduler falls back to uniform weight 1 —
  /// otherwise a zero-total universe would defer everything but aged items.
  void sync_items(const std::vector<std::pair<std::uint32_t, std::uint64_t>>& items);

  /// Split the next scan's work. Aged items go first (most-starved first),
  /// then the policy order (by weight or LRU), until the coverage target
  /// and item cap are exhausted; the rest is the deferred tail.
  ScheduledScan plan();

  /// Advance ages: `covered` was verified this scan (gap histogram +
  /// reset), everything else starved one more scan. Call exactly once per
  /// verifying scan, with plan()'s covered set.
  void mark_verified(const std::vector<std::uint32_t>& covered);

  std::size_t item_count() const { return items_.size(); }
  const TrafficScheduleStats& stats() const { return stats_; }
  const DetectionLatencyHistogram& detection_latency() const { return latency_; }
  const ScheduledScan& last() const { return last_; }

 private:
  struct Item {
    std::uint32_t bits = 0;
    std::uint64_t weight = 0;
    /// Verifying scans since last covered; new items start at aging_scans.
    std::uint64_t scans_since = 0;
    bool ever_verified = false;  // first coverage has no gap reference
  };

  std::vector<Item> items_;  // sorted by bits
  std::uint64_t total_weight_ = 0;
  TrafficScheduleOptions options_;
  TrafficScheduleStats stats_;
  DetectionLatencyHistogram latency_;
  ScheduledScan last_;
};

}  // namespace hbguard
