#include "hbguard/snapshot/incremental.hpp"

#include <algorithm>

namespace hbguard {

const DataPlaneSnapshot& IncrementalSnapshotter::ingest(std::span<const IoRecord> new_records,
                                                        const HappensBeforeGraph& hbg,
                                                        std::span<const HbgEdge> new_edges,
                                                        SnapshotDelta* delta,
                                                        ConsistencyReport* report,
                                                        const std::set<RouterId>* lossy_routers) {
  ++stats_.scans;
  bool delta_full = stats_.scans == 1;

  // 1. Append the new records. Capture order is per-router router_seq
  // order (the hub assigns sequence numbers monotonically), so appending
  // keeps each log sorted exactly as the scratch builder's sort would.
  for (const IoRecord& record : new_records) {
    auto [it, inserted] = routers_.try_emplace(record.router);
    if (inserted) delta_full = true;  // a new router changes every signature
    it->second.latest_logged = std::max(it->second.latest_logged, record.logged_time);
    it->second.log.push_back(record);
    position_[record.id] = {record.router, it->second.log.size() - 1};
    ++stats_.records_ingested;
  }

  // 2. Lowest index per router whose closure verdict may have changed: the
  // pending suffix (records past the stable frontier — previously rewound
  // or new), lowered to cover stable records that gained an in-edge.
  std::map<RouterId, std::size_t> check_from;
  for (const auto& [router, state] : routers_) check_from[router] = state.stable;
  for (const HbgEdge& edge : new_edges) {
    if (edge.confidence < options_.min_confidence) continue;
    auto pos = position_.find(edge.to);
    if (pos == position_.end()) continue;
    std::size_t& from = check_from[pos->second.first];
    from = std::min(from, pos->second.second);
  }

  // 3. Happens-before closure, restarted from the tentative full-horizon
  // frontier (everything known included) but only *checking* records from
  // check_from upward — everything below is proven stable (see header).
  std::map<RouterId, std::size_t> frontier;
  for (const auto& [router, state] : routers_) frontier[router] = state.log.size();

  auto included = [&](IoId id) {
    auto it = position_.find(id);
    if (it == position_.end()) return false;  // unknown (lost) record
    return it->second.second < frontier[it->second.first];
  };
  std::size_t unmatched_recvs = 0;
  auto bad = [&](const IoRecord& r) {
    ++stats_.closure_checks;
    bool missing_cause = false;
    hbg.for_each_in_edge(r.id, options_.min_confidence, [&](const HbgEdgeView& edge) {
      if (!included(edge.from) && position_.contains(edge.from)) {
        missing_cause = true;
        return true;
      }
      return false;
    });
    if (missing_cause) return true;
    if (options_.require_send_for_recv && r.kind == IoKind::kRecvAdvert &&
        r.peer != kExternalRouter && r.peer != kInvalidRouter) {
      bool has_send = false;
      hbg.for_each_in_edge(r.id, options_.min_confidence, [&](const HbgEdgeView& edge) {
        const IoRecord* parent = hbg.record(edge.from);
        if (parent != nullptr && parent->kind == IoKind::kSendAdvert) {
          has_send = true;
          return true;
        }
        return false;
      });
      if (!has_send) {
        // Mirror of the scratch builder's lost-send presumption: a
        // known-lossy sender whose log already extends past this recv can
        // never deliver the matching send — keep the recv.
        auto peer = routers_.find(r.peer);
        bool presumed_lost =
            lossy_routers != nullptr && lossy_routers->contains(r.peer) &&
            peer != routers_.end() &&
            peer->second.latest_logged >= r.logged_time + options_.lost_send_grace_us;
        if (!presumed_lost) {
          ++unmatched_recvs;
          return true;
        }
      }
    }
    return false;
  };

  std::size_t iterations = 0;
  bool fallback = false;
  bool changed = true;
  while (changed && !fallback) {
    changed = false;
    ++iterations;
    for (const auto& [router, state] : routers_) {
      std::size_t limit = frontier[router];
      for (std::size_t i = check_from[router]; i < limit; ++i) {
        if (bad(state.log[i])) {
          frontier[router] = i;
          changed = true;
          // A rewind below the stable frontier voids the other routers'
          // stable prefixes (they may depend on the newly excluded
          // records): fall back to the scratch-equivalent full closure.
          if (i < state.stable) fallback = true;
          break;
        }
      }
      if (fallback) break;
    }
  }

  if (fallback) {
    ++stats_.closure_fallbacks;
    delta_full = true;
    for (const auto& [router, state] : routers_) {
      frontier[router] = state.log.size();
      check_from[router] = 0;
    }
    changed = true;
    while (changed) {
      changed = false;
      ++iterations;
      for (const auto& [router, state] : routers_) {
        std::size_t limit = frontier[router];
        for (std::size_t i = 0; i < limit; ++i) {
          if (bad(state.log[i])) {
            frontier[router] = i;
            changed = true;
            break;
          }
        }
      }
    }
  }

  // 4. Commit: fold [stable, frontier) into each router's view, which is
  // itself the persistent replay state. A frontier below the replayed
  // prefix (possible only on fallback scans) rebuilds that router from an
  // empty view. Only a fold that moved entries drops the router's index.
  SnapshotDelta scan_delta;
  scan_delta.full = delta_full;
  for (auto& [router, state] : routers_) {
    std::size_t cut = frontier[router];
    RouterFibView& view = snapshot_.routers[router];
    if (cut < state.stable) {
      view = RouterFibView{};
      snapshot_.invalidate_lookup_cache(router);
      state.stable = 0;
      scan_delta.full = true;
      ++stats_.rebuilt_routers;
    }
    ViewFold fold(view);
    for (std::size_t i = state.stable; i < cut; ++i) fold.add(state.log[i], &scan_delta);
    if (fold.commit()) snapshot_.invalidate_lookup_cache(router);
    state.stable = cut;
  }
  if (scan_delta.full) {
    ++stats_.full_deltas;
    scan_delta.changed_prefixes.clear();
  }
  if (delta != nullptr) *delta = std::move(scan_delta);

  if (report != nullptr) {
    report->unmatched_recvs = unmatched_recvs;
    report->iterations = iterations;
    report->rewound.clear();
    report->in_flux.clear();
    for (const auto& [router, state] : routers_) {
      report->rewound[router] = state.log.size() - frontier[router];
    }
    // In-flux detection over the full history — identical to the scratch
    // builder's diagnostic pass (O(trace); only runs when requested).
    std::map<RouterId, SimTime> frontier_time;
    for (const auto& [router, state] : routers_) {
      frontier_time[router] =
          frontier[router] > 0 ? state.log[frontier[router] - 1].logged_time : 0;
    }
    for (const auto& [router, state] : routers_) {
      for (std::size_t i = 0; i < frontier[router]; ++i) {
        const IoRecord& r = state.log[i];
        if (r.kind != IoKind::kSendAdvert || !r.prefix.has_value() ||
            r.peer == kExternalRouter || r.peer == kInvalidRouter) {
          continue;
        }
        auto peer_frontier = frontier_time.find(r.peer);
        if (peer_frontier != frontier_time.end() &&
            r.logged_time + options_.in_flux_window_us < peer_frontier->second) {
          continue;
        }
        bool received = false;
        hbg.for_each_out_edge(r.id, options_.min_confidence, [&](const HbgEdgeView& edge) {
          const IoRecord* child = hbg.record(edge.to);
          if (child != nullptr && child->kind == IoKind::kRecvAdvert && included(edge.to)) {
            received = true;
            return true;
          }
          return false;
        });
        if (!received) report->in_flux.insert(*r.prefix);
      }
    }
  }
  return snapshot_;
}

}  // namespace hbguard
