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
#include "hbguard/net/topology.hpp"
#include "hbguard/snapshot/fib_table.hpp"

namespace hbguard {

/// One router's FIB state as seen by the verifier, plus environment state
/// (which uplinks are up) needed to evaluate conditional policies.
struct RouterFibView {
  FibTable entries;  // with its LPM index, current after every update
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
  /// A plain read of the view's index: safe from any number of threads
  /// while no view changes.
  const FibEntry* lookup(RouterId router, IpAddress destination) const;

  /// All prefixes appearing in any router's view.
  std::vector<Prefix> all_prefixes() const;

  bool uplink_up(RouterId router, const std::string& session) const;

  /// True if `router`'s uplink `session` is up and currently offers a route
  /// covering `prefix`.
  bool uplink_offers(RouterId router, const std::string& session, const Prefix& prefix) const;
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
/// applied by commit() as one FibTable batch: the last operation per prefix
/// wins, a reset voids the operations (and entries) before it, and no entry
/// the batch does not touch moves.
class ViewFold {
 public:
  explicit ViewFold(RouterFibView& view) : view_(view) {}

  /// Fold one record (capture order). With `delta`, the prefixes the record
  /// touches (FIB operations, external offers) are appended to
  /// changed_prefixes, unsorted and possibly repeated (the caller sorts and
  /// dedups once), and a reset or an uplink flip marks the delta full.
  void add(const IoRecord& record, SnapshotDelta* delta = nullptr);

  /// Buffer an install or replacement; `entry` must outlive commit().
  void install(const FibEntry& entry) { ops_.push_back({entry.prefix, &entry}); }
  void withdraw(const Prefix& prefix) { ops_.push_back({prefix, nullptr}); }

  /// Apply the buffered FIB operations to the view's entries.
  void commit();

 private:
  RouterFibView& view_;
  std::vector<FibTable::Update> ops_;
  bool reset_ = false;
};

}  // namespace hbguard
