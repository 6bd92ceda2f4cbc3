#include "hbguard/snapshot/consistent.hpp"

#include <algorithm>

#include "hbguard/util/strings.hpp"

namespace hbguard {

DataPlaneSnapshot ConsistentSnapshotter::build(std::span<const IoRecord> records,
                                               const HappensBeforeGraph& hbg,
                                               const std::map<RouterId, SimTime>& horizons,
                                               ConsistencyReport* report,
                                               const std::set<RouterId>* lossy_routers) const {
  // Per-router logs in router_seq order, plus how far each log extends
  // (for the lost-send presumption below).
  std::map<RouterId, std::vector<const IoRecord*>> logs;
  std::map<RouterId, SimTime> latest_logged;
  for (const IoRecord& r : records) {
    logs[r.router].push_back(&r);
    SimTime& latest = latest_logged[r.router];
    latest = std::max(latest, r.logged_time);
  }
  for (auto& [router, log] : logs) {
    std::sort(log.begin(), log.end(), [](const IoRecord* a, const IoRecord* b) {
      return a->router_seq < b->router_seq;
    });
  }

  // Initial frontier: the longest log prefix whose records were logged at
  // or before the router's horizon.
  std::map<RouterId, std::size_t> frontier;
  for (const auto& [router, log] : logs) {
    SimTime horizon = Simulator::kForever;
    auto it = horizons.find(router);
    if (it != horizons.end()) horizon = it->second;
    std::size_t count = 0;
    for (const IoRecord* r : log) {
      if (r->logged_time > horizon) break;
      ++count;
    }
    frontier[router] = count;
  }
  std::map<RouterId, std::size_t> initial_frontier = frontier;

  // Index: record id -> (router, position).
  std::map<IoId, std::pair<RouterId, std::size_t>> position;
  for (const auto& [router, log] : logs) {
    for (std::size_t i = 0; i < log.size(); ++i) position[log[i]->id] = {router, i};
  }
  auto included = [&](IoId id) {
    auto it = position.find(id);
    if (it == position.end()) return false;  // unknown (lost) record
    return it->second.second < frontier[it->second.first];
  };

  // Happens-before closure by rewinding routers that are "ahead".
  std::size_t unmatched_recvs = 0;
  std::size_t iterations = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++iterations;
    for (const auto& [router, log] : logs) {
      std::size_t limit = frontier[router];
      for (std::size_t i = 0; i < limit; ++i) {
        const IoRecord& r = *log[i];
        bool must_rewind = false;
        hbg.for_each_in_edge(r.id, options_.min_confidence, [&](const HbgEdgeView& edge) {
          if (!included(edge.from) && position.contains(edge.from)) {
            // The cause exists but is beyond its router's horizon: we are
            // ahead of that router — rewind past this record.
            must_rewind = true;
            return true;
          }
          return false;
        });
        if (!must_rewind && options_.require_send_for_recv && r.kind == IoKind::kRecvAdvert &&
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
            // The send may have been dropped for good by a faulty capture
            // stream rather than being in flight: the sender's stream is
            // known lossy and its log already extends well past this recv,
            // so (per-router seq-order admission) the send can never
            // arrive. The recv is the only surviving evidence of the
            // update — keep it instead of rewinding its router forever.
            auto latest = latest_logged.find(r.peer);
            bool presumed_lost =
                lossy_routers != nullptr && lossy_routers->contains(r.peer) &&
                latest != latest_logged.end() &&
                latest->second >= r.logged_time + options_.lost_send_grace_us;
            if (!presumed_lost) {
              ++unmatched_recvs;
              must_rewind = true;
            }
          }
        }
        if (must_rewind) {
          frontier[router] = i;  // exclude r and everything after it
          changed = true;
          break;
        }
      }
    }
  }

  // Replay each router's included FIB updates and uplink state changes.
  // Replays are independent per router, so they shard across the pool;
  // results are committed to the snapshot in router-id order, keeping
  // parallel builds identical to serial ones.
  std::vector<std::pair<RouterId, const std::vector<const IoRecord*>*>> replay_order;
  replay_order.reserve(logs.size());
  for (const auto& [router, log] : logs) replay_order.emplace_back(router, &log);

  std::vector<RouterFibView> views(replay_order.size());
  auto replay_router = [&](std::size_t index) {
    const auto& [router, log] = replay_order[index];
    ViewFold fold(views[index]);
    for (std::size_t i = 0; i < frontier[router]; ++i) fold.add(*(*log)[i]);
    fold.commit();
  };

  if (pool_ != nullptr && replay_order.size() > 1) {
    pool_->parallel_for(replay_order.size(), replay_router);
  } else {
    for (std::size_t i = 0; i < replay_order.size(); ++i) replay_router(i);
  }

  DataPlaneSnapshot snapshot;
  for (std::size_t i = 0; i < replay_order.size(); ++i) {
    snapshot.routers[replay_order[i].first] = std::move(views[i]);
  }

  if (report != nullptr) {
    report->unmatched_recvs = unmatched_recvs;
    report->iterations = iterations;
    for (const auto& [router, count] : initial_frontier) {
      report->rewound[router] = count - frontier[router];
    }
    // In-flux detection: an included internal send whose matching receive
    // (per the HBG's cross-router edges) is beyond the peer's frontier
    // means this prefix has an update mid-propagation at the cut.
    std::map<RouterId, SimTime> frontier_time;
    for (const auto& [router, log] : logs) {
      frontier_time[router] =
          frontier[router] > 0 ? log[frontier[router] - 1]->logged_time : 0;
    }
    for (const auto& [router, log] : logs) {
      for (std::size_t i = 0; i < frontier[router]; ++i) {
        const IoRecord& r = *log[i];
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
  return snapshot;
}

}  // namespace hbguard
