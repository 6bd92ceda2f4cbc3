// The data-plane verifier front end.
//
// Runs a policy list against a snapshot and (for evaluation) classifies the
// verdicts of a possibly-inconsistent snapshot against an oracle snapshot —
// the false-positive/false-negative accounting behind the paper's claim
// that naive distributed snapshots mislead verifiers (§2, §5).
//
// Under a scan stream, verification follows the change rather than the
// table: given the SnapshotDelta since the previous verify() call, a policy
// none of whose destinations the delta touches keeps its previous
// violations, and only the remaining policies are checked, each tracing
// forwarding on the fly. Deciding which those are costs the delta, not the
// policy set: the changed prefixes are walked over the sorted destinations,
// a destination → policy index names the policies to check, and a reused
// policy costs nothing (a plan or a full delta, the inputs that do cover
// every policy, may cost a pass). One path serves every thread count: a
// pool only splits the list of policies to check across its workers.
// Verdicts are merged in policy order, so reports are byte-identical at any
// thread count.
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>

#include "hbguard/util/thread_pool.hpp"
#include "hbguard/verify/policy.hpp"

namespace hbguard {

/// A scan budget from the traffic scheduler (verify/traffic.hpp): the
/// destinations this verify() call must cover. Policies whose destinations
/// are not all covered are deferred — skipped entirely, reported via
/// VerifyResult::deferred_policies. A null plan covers everything.
struct VerifyPlan {
  /// Destination bits to verify, sorted ascending.
  std::vector<std::uint32_t> covered;

  bool covers(std::uint32_t bits) const {
    return std::binary_search(covered.begin(), covered.end(), bits);
  }
};

struct VerifyResult {
  std::vector<Violation> violations;
  /// Policies evaluated / skipped under this call's VerifyPlan (deferred is
  /// 0 on unplanned calls: every policy is evaluated).
  std::size_t evaluated_policies = 0;
  std::size_t deferred_policies = 0;
  bool clean() const { return violations.empty(); }
};

struct VerifierOptions {
  /// Worker threads that check policies. 0 = one per hardware thread;
  /// 1 = check on the calling thread (no pool); N = N workers.
  unsigned num_threads = 0;
};

/// Cumulative counters, identical at every thread count.
struct VerifyStats {
  std::size_t runs = 0;  // verify() calls
  /// Destinations of the policies each call covered (its plan did not
  /// defer them), summed over calls.
  std::size_t destinations = 0;
  /// Of `destinations`, those no policy had to re-check because the
  /// caller's SnapshotDelta proved them untouched.
  std::size_t delta_skips = 0;
  /// Covered policies whose violations were reused from the previous call.
  std::size_t reused_policies = 0;

  /// Always 0.0: the verifier stores only verdicts. Its one reader is the
  /// per-layer metric `verify.cache_hit_rate` (perfbench/hbbench.cpp:672);
  /// the two go together.
  double hit_rate() const { return 0.0; }
};

class Verifier {
 public:
  /// `pool` may be shared with other pipeline stages (e.g. the Guard's);
  /// when null and the options call for parallelism, a pool is created
  /// lazily on first use.
  explicit Verifier(PolicyList policies, VerifierOptions options = {},
                    std::shared_ptr<ThreadPool> pool = nullptr);

  VerifyResult verify(const DataPlaneSnapshot& snapshot) const;

  /// Delta-driven verification: `delta` describes what changed in
  /// `snapshot` since the snapshot passed to the *previous* verify() call
  /// on this verifier (the guard's scan stream satisfies this). A policy
  /// whose violations that previous call produced or confirmed keeps them
  /// without being evaluated when no changed prefix contains any of its
  /// destinations (see Policy for what a verdict may depend on). Results
  /// are byte-identical to verify(snapshot) at every thread count; a null
  /// (or full) delta degrades to it exactly.
  VerifyResult verify(const DataPlaneSnapshot& snapshot, const SnapshotDelta* delta) const;

  /// As above, restricted to `plan`'s covered destinations: policies
  /// depending on an uncovered destination are deferred (and their stored
  /// violations go stale, so the next call re-evaluates them). A null plan
  /// (or one covering every policy destination) is byte-identical to the
  /// unplanned overloads.
  VerifyResult verify(const DataPlaneSnapshot& snapshot, const SnapshotDelta* delta,
                      const VerifyPlan* plan) const;

  const PolicyList& policies() const { return policies_; }
  const VerifierOptions& options() const { return options_; }

  VerifyStats stats() const;
  /// Drop every stored verdict: the next call checks each covered policy
  /// whatever its delta says.
  void clear_cache() const;

  /// The pool that splits the policies to check (created on demand; null
  /// while the verifier is configured for one thread).
  std::shared_ptr<ThreadPool> thread_pool() const;

 private:
  /// Fill the destination tables below (under mutex_, on the first call).
  void index_destinations() const;

  PolicyList policies_;
  VerifierOptions options_;

  /// Guards everything below. The destination tables are written once,
  /// under it, and only read after that.
  mutable std::mutex mutex_;
  /// The distinct destinations the policy set reasons about (their bits,
  /// ascending), each policy's destinations as indices into them — policy
  /// i owns policy_destinations_[policy_begin_[i], policy_begin_[i + 1]) —
  /// and the inverse: each destination's policies, ascending. Built by the
  /// first verify() rather than the constructor, which keeps a daemon with
  /// thousands of policies quick to start.
  mutable std::vector<std::uint32_t> destinations_;
  mutable std::vector<std::size_t> policy_begin_;
  mutable std::vector<std::size_t> policy_destinations_;
  mutable std::vector<std::vector<std::size_t>> destination_policies_;
  mutable std::shared_ptr<ThreadPool> pool_;
  /// Each policy's violations from the last call that checked it.
  mutable std::vector<std::vector<Violation>> verdicts_;
  /// The policies whose stored verdict no delta may vouch for: set at
  /// construction, by clear_cache() and for each policy a plan defers (the
  /// deltas it then misses describe changes it never saw); cleared when the
  /// policy is checked. A policy that is not stale reuses its verdict at no
  /// cost until a changed prefix contains one of its destinations.
  mutable std::vector<char> stale_;
  mutable std::size_t stale_count_ = 0;
  /// The policies whose stored verdict holds violations, ascending: the
  /// policy-order merge walks these only.
  mutable std::vector<std::size_t> violating_;
  mutable VerifyStats stats_;
};

/// Compare the verdict drawn from `observed` (e.g. a skewed snapshot) with
/// the verdict from `truth` (the oracle instantaneous snapshot), per policy.
struct VerdictComparison {
  std::size_t agree = 0;            // same verdict (violation or not)
  std::size_t false_alarms = 0;     // observed flags a policy that truth passes
  std::size_t missed = 0;           // observed passes a policy that truth flags
};

VerdictComparison compare_verdicts(const Verifier& verifier, const DataPlaneSnapshot& observed,
                                   const DataPlaneSnapshot& truth);

}  // namespace hbguard
