// FIB-update blocking (§2's strawman, and §1's "capture errors before they
// are installed").
//
// VerifyingBlocker is the faithful reading of §1: every proposed FIB update
// is verified against a hypothetical data plane (current data plane + the
// update) *before* installation, and vetoed if it would introduce a policy
// violation. Because the control plane proceeds regardless, sustained
// blocking desynchronizes the control and data planes — reproducing §2's
// follow-on blackhole hazard, which bench A4 quantifies.
#pragma once

#include <utility>
#include <vector>

#include "hbguard/sim/network.hpp"
#include "hbguard/snapshot/naive.hpp"
#include "hbguard/verify/verifier.hpp"

namespace hbguard {

class VerifyingBlocker {
 public:
  /// Installs itself as the FIB interceptor on every router of `network`.
  /// The interceptor verifies each proposed update against `policies`.
  VerifyingBlocker(Network& network, PolicyList policies);

  std::size_t blocked_count() const { return blocked_; }
  std::size_t allowed_count() const { return allowed_; }
  const std::vector<std::pair<RouterId, Prefix>>& blocked_updates() const {
    return blocked_updates_;
  }

  /// Stop blocking and resynchronize every router's data-plane FIB with
  /// its control plane (what an operator does after fixing the root cause).
  void release_and_resync();

 private:
  bool inspect(RouterId router, const Prefix& prefix, const FibEntry* entry);

  Network& network_;
  Verifier verifier_;
  std::size_t blocked_ = 0;
  std::size_t allowed_ = 0;
  std::vector<std::pair<RouterId, Prefix>> blocked_updates_;
  bool released_ = false;
};

}  // namespace hbguard
