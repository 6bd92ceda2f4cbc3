#include "hbguard/repair/blocker.hpp"

#include <set>

namespace hbguard {

VerifyingBlocker::VerifyingBlocker(Network& network, PolicyList policies)
    : network_(network), verifier_(std::move(policies)) {
  network_.set_fib_interceptor([this](RouterId router, const Prefix& prefix,
                                      const FibEntry* entry) {
    return inspect(router, prefix, entry);
  });
}

bool VerifyingBlocker::inspect(RouterId router, const Prefix& prefix, const FibEntry* entry) {
  if (released_) return true;
  // Hypothetical data plane: the current data-plane FIBs with the proposed
  // update applied.
  DataPlaneSnapshot hypothetical = take_instant_snapshot(network_);
  ViewFold fold(hypothetical.routers[router]);
  if (entry != nullptr) {
    fold.install(*entry);
  } else {
    fold.withdraw(prefix);
  }
  fold.commit();

  bool clean = verifier_.verify(hypothetical).clean();
  if (clean) {
    ++allowed_;
    return true;
  }
  ++blocked_;
  blocked_updates_.emplace_back(router, prefix);
  return false;
}

void VerifyingBlocker::release_and_resync() {
  released_ = true;
  std::set<std::pair<RouterId, Prefix>> unique(blocked_updates_.begin(), blocked_updates_.end());
  for (const auto& [router, prefix] : unique) {
    network_.router(router).resync_data_fib(prefix);
  }
}

}  // namespace hbguard
