#include "hbguard/snapshot/naive.hpp"

#include <algorithm>

namespace hbguard {

const FibEntry* DataPlaneSnapshot::lookup(RouterId router, IpAddress destination) const {
  auto it = routers.find(router);
  return it == routers.end() ? nullptr : it->second.entries.lookup(destination);
}

void ViewFold::add(const IoRecord& r, SnapshotDelta* delta) {
  auto touch = [&](const Prefix& prefix) {
    if (delta != nullptr && !delta->full) delta->changed_prefixes.push_back(prefix);
  };
  view_.as_of = std::max(view_.as_of, r.logged_time);
  if (r.fib_reset) {
    // Checkpoint marker (cold boot / capture resync): everything replayed
    // so far for this router is void; the records that follow rebuild the
    // view. Per-prefix deltas cannot describe a wholesale wipe.
    ops_.clear();
    reset_ = true;
    view_.failed_uplinks.clear();
    view_.uplink_routes.clear();
    if (delta != nullptr) delta->full = true;
  }
  if (r.kind == IoKind::kFibUpdate && !r.fib_blocked) {
    if (r.withdraw) {
      if (r.prefix) {
        withdraw(*r.prefix);
        touch(*r.prefix);
      }
    } else if (r.fib_entry.has_value()) {
      install(*r.fib_entry);
      touch(r.fib_entry->prefix);
    }
  } else if (r.kind == IoKind::kHardwareStatus && !r.session.empty()) {
    if (r.link_up) {
      view_.failed_uplinks.erase(r.session);
    } else {
      view_.failed_uplinks.insert(r.session);
      // An uplink failure resets the eBGP session: its offers are gone.
      view_.uplink_routes.erase(r.session);
    }
    // Uplink state feeds every trace that exits there: no per-prefix story.
    if (delta != nullptr) delta->full = true;
  } else if (r.kind == IoKind::kRecvAdvert && r.peer == kExternalRouter &&
             r.prefix.has_value()) {
    // What each external uplink currently offers. Conditional policies
    // (preferred exit) read it straight off the view, so an offer change
    // enters the delta even though no FIB entry moved.
    if (r.withdraw) {
      view_.uplink_routes[r.session].erase(*r.prefix);
    } else {
      view_.uplink_routes[r.session].insert(*r.prefix);
    }
    touch(*r.prefix);
  }
}

void ViewFold::commit() {
  if (reset_) {
    reset_ = false;
    view_.entries.clear();
  }
  if (ops_.empty()) return;
  // The last operation per prefix wins.
  std::stable_sort(ops_.begin(), ops_.end(),
                   [](const FibTable::Update& a, const FibTable::Update& b) {
                     return a.prefix < b.prefix;
                   });
  std::size_t kept = 0;
  for (const FibTable::Update& op : ops_) {
    if (kept > 0 && ops_[kept - 1].prefix == op.prefix) {
      ops_[kept - 1] = op;
    } else {
      ops_[kept++] = op;
    }
  }
  ops_.resize(kept);
  view_.entries.apply(ops_);
  ops_.clear();
}

std::vector<Prefix> DataPlaneSnapshot::all_prefixes() const {
  std::set<Prefix> unique;
  for (const auto& [router, view] : routers) {
    for (const FibEntry& entry : view.entries) unique.insert(entry.prefix);
  }
  return {unique.begin(), unique.end()};
}

bool DataPlaneSnapshot::uplink_up(RouterId router, const std::string& session) const {
  auto it = routers.find(router);
  if (it == routers.end()) return true;
  return !it->second.failed_uplinks.contains(session);
}

bool DataPlaneSnapshot::uplink_offers(RouterId router, const std::string& session,
                                      const Prefix& prefix) const {
  if (!uplink_up(router, session)) return false;
  auto it = routers.find(router);
  if (it == routers.end()) return false;
  auto session_it = it->second.uplink_routes.find(session);
  if (session_it == it->second.uplink_routes.end()) return false;
  for (const Prefix& offered : session_it->second) {
    if (offered.covers(prefix)) return true;
  }
  return false;
}

namespace {
RouterFibView view_of(const Router& router, SimTime now) {
  RouterFibView view;
  view.entries = FibTable(router.data_fib().entries());
  view.as_of = now;
  view.failed_uplinks = router.failed_uplinks();
  view.uplink_routes = router.external_routes();
  return view;
}
}  // namespace

DataPlaneSnapshot take_instant_snapshot(const Network& network) {
  DataPlaneSnapshot snapshot;
  for (std::size_t i = 0; i < network.router_count(); ++i) {
    auto id = static_cast<RouterId>(i);
    snapshot.routers[id] = view_of(network.router(id), network.sim().now());
  }
  return snapshot;
}

NaiveSnapshotter::NaiveSnapshotter(Network& network, SimTime max_skew_us, std::uint64_t seed)
    : network_(network), max_skew_us_(max_skew_us), rng_(seed) {}

void NaiveSnapshotter::request() {
  state_ = std::make_shared<State>();
  state_->pending = network_.router_count();
  for (std::size_t i = 0; i < network_.router_count(); ++i) {
    auto id = static_cast<RouterId>(i);
    SimTime skew = max_skew_us_ > 0 ? rng_.uniform_int(0, max_skew_us_) : 0;
    auto state = state_;
    Network* network = &network_;
    network_.sim().schedule_after(skew, [state, network, id] {
      state->snapshot.routers[id] = view_of(network->router(id), network->sim().now());
      --state->pending;
    });
  }
}

}  // namespace hbguard
