// Data-plane snapshot types shared by every snapshotter, and the one fold
// that replays captured records into a view.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hbguard/capture/io_record.hpp"
#include "hbguard/event/simulator.hpp"
#include "hbguard/net/prefix_trie.hpp"
#include "hbguard/net/topology.hpp"
#include "hbguard/rib/fib.hpp"

namespace hbguard {

/// One router's FIB state as seen by the verifier, plus environment state
/// (which uplinks are up) needed to evaluate conditional policies.
struct RouterFibView {
  std::vector<FibEntry> entries;
  SimTime as_of = 0;  // the instant this view reflects
  std::set<std::string> failed_uplinks;
  /// Routes currently offered by each external uplink (derived from the
  /// captured eBGP advertisements/withdrawals on that session) — the
  /// environment state conditional policies like preferred-exit need.
  std::map<std::string, std::set<Prefix>> uplink_routes;
};

struct DataPlaneSnapshot {
  std::map<RouterId, RouterFibView> routers;

  /// Longest-prefix-match lookup in `router`'s view; nullptr if no match.
  /// Builds per-router FlatPrefixIndex structures lazily (cached) — ~20
  /// bytes per entry, so million-prefix views stay indexable where the old
  /// per-router PrefixTrie cache would cost hundreds of MB.
  const FibEntry* lookup(RouterId router, IpAddress destination) const;

  /// Build every router's lookup index now. Concurrent lookup() calls are
  /// only safe after warming (or mutual exclusion): the lazy index build
  /// mutates the cache. The verifier warms before fanning out.
  void warm_lookup_cache() const;

  /// All prefixes appearing in any router's view.
  std::vector<Prefix> all_prefixes() const;

  bool uplink_up(RouterId router, const std::string& session) const;

  /// True if `router`'s uplink `session` is up and currently offers a route
  /// covering `prefix`.
  bool uplink_offers(RouterId router, const std::string& session, const Prefix& prefix) const;

  /// Lookups build per-router indices lazily; after mutating `routers`
  /// in place, call this to drop the stale indices.
  void invalidate_lookup_cache() const { lookup_cache_.clear(); }

  /// Drop one router's index only — the incremental snapshotter mutates
  /// views router-by-router, and unchanged routers keep their warm indices
  /// across scans.
  void invalidate_lookup_cache(RouterId router) const { lookup_cache_.erase(router); }

 private:
  /// `router`'s LPM index over `view`'s entries, built on first use.
  const FlatPrefixIndex& index_of(RouterId router, const RouterFibView& view) const;

  mutable std::map<RouterId, FlatPrefixIndex> lookup_cache_;
};

/// What changed between one snapshot and its predecessor in a scan stream.
/// Produced by the incremental snapshotter; consumed by the verifier, which
/// walks `changed_prefixes` over its sorted destinations and re-evaluates
/// only the policies with a destination inside a changed prefix (the others
/// keep their previous verdicts). A `full` delta (the default) claims nothing,
/// so consumers must treat every destination as changed — correct for the
/// first snapshot, uplink up/down flips, router-set changes, FIB resets and
/// any fallback rebuild.
struct SnapshotDelta {
  bool full = true;
  /// Prefixes whose FIB entries were installed/removed on some router, or
  /// whose external offers changed, since the previous snapshot (a
  /// superset of actual changes is fine), sorted and distinct. A
  /// destination's lookups, traces and covering offers can only move when
  /// one of these contains it.
  std::vector<Prefix> changed_prefixes;
};

/// Replays one router's captured records into its RouterFibView: the one
/// fold every snapshot path shares (the consistent snapshotter's one-shot
/// and maintained cuts, and the blocker's hypothetical update). Uplink and offer
/// state change as each record is added; FIB operations are buffered and
/// applied by commit() in one pass, keeping `view.entries` sorted by prefix
/// — the order Fib::entries() yields. The last operation per prefix wins,
/// a reset voids the operations (and entries) before it, replacements
/// patch entries in place, and inserts and erases are merged in place, so
/// entries before the first of them never move.
class ViewFold {
 public:
  /// `view.entries` must be sorted by prefix with no duplicates.
  explicit ViewFold(RouterFibView& view) : view_(view) {}

  /// Fold one record (capture order). With `delta`, the prefixes the record
  /// touches (FIB operations, external offers) are appended to
  /// changed_prefixes, unsorted and possibly repeated (the caller sorts and
  /// dedups once), and a reset or an uplink flip marks the delta full.
  void add(const IoRecord& record, SnapshotDelta* delta = nullptr);

  /// Buffer an install or replacement; `entry` must outlive commit().
  void install(const FibEntry& entry) { ops_.push_back({entry.prefix, &entry}); }
  void withdraw(const Prefix& prefix) { ops_.push_back({prefix, nullptr}); }

  /// Apply the buffered FIB operations to the view's entries. Returns true
  /// when entries moved (an insert, erase or reset), which invalidates a
  /// positional index over the view; replacements keep every position.
  bool commit();

 private:
  struct Op {
    Prefix prefix;
    const FibEntry* entry = nullptr;  // null: withdraw
  };

  RouterFibView& view_;
  std::vector<Op> ops_;
  bool reset_ = false;
};

}  // namespace hbguard
