#include "hbguard/snapshot/incremental.hpp"

#include <algorithm>

namespace hbguard {

bool IncrementalSnapshotter::append(const IoRecord& record) {
  auto slot = static_cast<std::uint32_t>(states_.size());
  auto [it, inserted] = slots_.try_emplace(record.router, slot);
  if (inserted) states_.emplace_back();
  RouterState& state = states_[it->second];
  state.latest_logged = std::max(state.latest_logged, record.logged_time);
  if (record.id >= position_.size()) position_.resize(record.id + 1);
  position_[record.id] = {it->second, static_cast<std::uint32_t>(state.log.size())};
  state.log.push_back(record.id);
  return inserted;
}

bool IncrementalSnapshotter::breaks_closure(const IoRecord& r, const HappensBeforeGraph& hbg,
                                            const std::set<RouterId>* lossy_routers,
                                            Closure& closure) {
  ++stats_.closure_checks;
  bool missing_cause = false;
  hbg.for_each_in_edge(r.id, options_.min_confidence, [&](const HbgEdgeView& edge) {
    // The cause exists but is beyond its router's frontier: this router is
    // ahead of that one.
    missing_cause = known(edge.from) && !included(edge.from);
    return missing_cause;
  });
  if (missing_cause) return true;
  if (!options_.require_send_for_recv || r.kind != IoKind::kRecvAdvert ||
      r.peer == kExternalRouter || r.peer == kInvalidRouter) {
    return false;
  }
  bool has_send = false;
  hbg.for_each_in_edge(r.id, options_.min_confidence, [&](const HbgEdgeView& edge) {
    const IoRecord* parent = hbg.record(edge.from);
    has_send = parent != nullptr && parent->kind == IoKind::kSendAdvert;
    return has_send;
  });
  if (has_send) return false;
  // The send may have been dropped for good by a faulty capture stream
  // rather than being in flight: the sender's stream is known lossy and its
  // log already extends well past this recv, so (per-router seq-order
  // admission) the send can never arrive. The recv is the only surviving
  // evidence of the update — keep it instead of rewinding its router
  // forever.
  auto peer = slots_.find(r.peer);
  bool presumed_lost = lossy_routers != nullptr && lossy_routers->contains(r.peer) &&
                       peer != slots_.end() &&
                       states_[peer->second].latest_logged >=
                           r.logged_time + options_.lost_send_grace_us;
  if (presumed_lost) return false;
  ++closure.unmatched_recvs;
  return true;
}

IncrementalSnapshotter::Closure IncrementalSnapshotter::close(
    const HappensBeforeGraph& hbg, const std::set<RouterId>* lossy_routers) {
  Closure closure;
  // Rewind routers that are "ahead" until nothing changes. With
  // `guard_stable`, a rewind below a router's stable frontier stops the
  // pass: the other routers' stable prefixes may depend on the records it
  // just excluded.
  auto fixpoint = [&](bool guard_stable) {
    for (bool changed = true; changed;) {
      changed = false;
      ++closure.iterations;
      for (const auto& [router, slot] : slots_) {
        RouterState& state = states_[slot];
        for (std::size_t i = state.check_from; i < state.frontier; ++i) {
          if (breaks_closure(*hbg.record(state.log[i]), hbg, lossy_routers, closure)) {
            state.frontier = i;  // exclude the record and everything after it
            changed = true;
            if (guard_stable && i < state.stable) return false;
            break;
          }
        }
      }
    }
    return true;
  };
  for (RouterState& state : states_) state.frontier = state.cap;
  if (!fixpoint(/*guard_stable=*/true)) {
    closure.fell_back = true;
    for (RouterState& state : states_) {
      state.frontier = state.cap;
      state.check_from = 0;
    }
    fixpoint(/*guard_stable=*/false);
  }
  return closure;
}

void IncrementalSnapshotter::commit(const HappensBeforeGraph& hbg, SnapshotDelta* delta) {
  for (const auto& [router, slot] : slots_) {
    RouterState& state = states_[slot];
    RouterFibView& view = snapshot_.routers[router];
    if (state.frontier < state.stable) {
      view = RouterFibView{};
      state.stable = 0;
      if (delta != nullptr) delta->full = true;
      ++stats_.rebuilt_routers;
    }
    ViewFold fold(view);
    for (std::size_t i = state.stable; i < state.frontier; ++i) {
      fold.add(*hbg.record(state.log[i]), delta);
    }
    fold.commit();
    state.stable = state.frontier;
  }
}

void IncrementalSnapshotter::fill_report(const HappensBeforeGraph& hbg, const Closure& closure,
                                         ConsistencyReport& report) const {
  report.unmatched_recvs = closure.unmatched_recvs;
  report.iterations = closure.iterations;
  report.rewound.clear();
  report.in_flux.clear();
  std::map<RouterId, SimTime> frontier_time;
  for (const auto& [router, slot] : slots_) {
    const RouterState& state = states_[slot];
    report.rewound[router] = state.cap - state.frontier;
    frontier_time[router] =
        state.frontier > 0 ? hbg.record(state.log[state.frontier - 1])->logged_time : 0;
  }
  // In-flux detection over the included history (O(trace); only runs when
  // requested): an included internal send whose matching receive (per the
  // HBG's cross-router edges) is beyond the peer's frontier means this
  // prefix has an update mid-propagation at the cut.
  for (const auto& [router, slot] : slots_) {
    const RouterState& state = states_[slot];
    for (std::size_t i = 0; i < state.frontier; ++i) {
      const IoRecord& r = *hbg.record(state.log[i]);
      if (r.kind != IoKind::kSendAdvert || !r.prefix.has_value() ||
          r.peer == kExternalRouter || r.peer == kInvalidRouter) {
        continue;
      }
      // Sends long before the peer's frontier are presumed delivered even
      // when the (imperfect) HBG lacks the edge.
      auto peer_frontier = frontier_time.find(r.peer);
      if (peer_frontier != frontier_time.end() &&
          r.logged_time + options_.in_flux_window_us < peer_frontier->second) {
        continue;
      }
      bool received = false;
      hbg.for_each_out_edge(r.id, options_.min_confidence, [&](const HbgEdgeView& edge) {
        const IoRecord* child = hbg.record(edge.to);
        received = child != nullptr && child->kind == IoKind::kRecvAdvert && included(edge.to);
        return received;
      });
      if (!received) report.in_flux.insert(*r.prefix);
    }
  }
}

const DataPlaneSnapshot& IncrementalSnapshotter::ingest(std::span<const IoRecord> new_records,
                                                        const HappensBeforeGraph& hbg,
                                                        std::span<const HbgEdge> new_edges,
                                                        SnapshotDelta* delta,
                                                        ConsistencyReport* report,
                                                        const std::set<RouterId>* lossy_routers) {
  ++stats_.scans;
  SnapshotDelta scan_delta;
  scan_delta.full = stats_.scans == 1;

  // Append the new records. Capture order is per-router router_seq order
  // (the hub admits records in sequence), so appending keeps each log
  // sorted exactly as build()'s sort would.
  for (const IoRecord& record : new_records) {
    if (append(record)) scan_delta.full = true;  // a new router changes every signature
    ++stats_.records_ingested;
  }

  // Everything known is tentatively included. Re-check each router from
  // its pending suffix, lowered to cover stable records that gained an
  // in-edge; everything below is proven stable (see header).
  for (RouterState& state : states_) {
    state.cap = state.log.size();
    state.check_from = state.stable;
  }
  for (const HbgEdge& edge : new_edges) {
    if (edge.confidence < options_.min_confidence || !known(edge.to)) continue;
    const Position& pos = position_[edge.to];
    std::size_t& from = states_[pos.slot].check_from;
    from = std::min<std::size_t>(from, pos.index);
  }

  Closure closure = close(hbg, lossy_routers);
  if (closure.fell_back) {
    ++stats_.closure_fallbacks;
    scan_delta.full = true;
  }
  commit(hbg, &scan_delta);
  std::vector<Prefix>& changed = scan_delta.changed_prefixes;
  if (scan_delta.full) {
    ++stats_.full_deltas;
    changed.clear();
  } else {
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  }
  if (delta != nullptr) *delta = std::move(scan_delta);
  if (report != nullptr) fill_report(hbg, closure, *report);
  return snapshot_;
}

DataPlaneSnapshot IncrementalSnapshotter::build(const Options& options,
                                                std::span<const IoRecord> records,
                                                const HappensBeforeGraph& hbg,
                                                const std::map<RouterId, SimTime>& horizons,
                                                ConsistencyReport* report,
                                                const std::set<RouterId>* lossy_routers) {
  std::map<RouterId, std::vector<const IoRecord*>> logs;
  for (const IoRecord& r : records) logs[r.router].push_back(&r);

  IncrementalSnapshotter cut(options);
  for (auto& [router, log] : logs) {
    std::stable_sort(log.begin(), log.end(), [](const IoRecord* a, const IoRecord* b) {
      return a->router_seq < b->router_seq;
    });
    for (const IoRecord* r : log) cut.append(*r);
    // The tentative frontier: the longest log prefix logged at or before
    // the router's horizon.
    auto horizon = horizons.find(router);
    RouterState& state = cut.states_[cut.slots_.at(router)];
    while (state.cap < log.size() &&
           (horizon == horizons.end() || log[state.cap]->logged_time <= horizon->second)) {
      ++state.cap;
    }
  }
  Closure closure = cut.close(hbg, lossy_routers);
  cut.commit(hbg, nullptr);
  if (report != nullptr) cut.fill_report(hbg, closure, *report);
  return std::move(cut.snapshot_);
}

}  // namespace hbguard
