#include "hbguard/verify/verifier.hpp"

#include <span>

namespace hbguard {

Verifier::Verifier(PolicyList policies, VerifierOptions options, std::shared_ptr<ThreadPool> pool)
    : policies_(std::move(policies)),
      options_(options),
      pool_(std::move(pool)),
      verdicts_(policies_.size()),
      verdict_runs_(policies_.size(), 0) {}

void Verifier::index_destinations() const {
  std::vector<std::uint32_t> bits;
  policy_begin_.reserve(policies_.size() + 1);
  policy_begin_.push_back(0);
  for (const auto& policy : policies_) {
    for (const Prefix& prefix : policy->prefixes()) bits.push_back(representative(prefix).bits());
    policy_begin_.push_back(bits.size());
  }
  std::vector<std::uint32_t> distinct = bits;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  destinations_.reserve(distinct.size());
  for (std::uint32_t b : distinct) destinations_.emplace_back(b);
  policy_destinations_.reserve(bits.size());
  for (std::uint32_t b : bits) {
    policy_destinations_.push_back(static_cast<std::size_t>(
        std::lower_bound(distinct.begin(), distinct.end(), b) - distinct.begin()));
  }
}

VerifyResult Verifier::verify(const DataPlaneSnapshot& snapshot) const {
  return verify(snapshot, nullptr, nullptr);
}

VerifyResult Verifier::verify(const DataPlaneSnapshot& snapshot,
                              const SnapshotDelta* delta) const {
  return verify(snapshot, delta, nullptr);
}

VerifyResult Verifier::verify(const DataPlaneSnapshot& snapshot, const SnapshotDelta* delta,
                              const VerifyPlan* plan) const {
  // One index over the changed prefixes answers "could this destination's
  // lookups, traces or covering offers have moved?" with one lookup.
  const bool incremental = delta != nullptr && !delta->full;
  FlatPrefixIndex changed;
  if (incremental) {
    std::vector<Prefix> prefixes(delta->changed_prefixes.begin(), delta->changed_prefixes.end());
    changed.build(prefixes);
  }

  // Decide per policy: deferred by the plan, reused (its stored verdict is
  // from the previous call and the delta touches none of its
  // destinations), or checked now. Deferred policies keep their stale
  // stamp, so a later call cannot reuse across the deltas they missed.
  VerifyResult result;
  std::vector<std::size_t> todo;
  std::vector<char> covered(policies_.size(), 0);
  std::size_t run = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (policy_begin_.empty()) index_destinations();
    std::vector<char> in_plan(destinations_.size(), 1);
    std::vector<char> affected(destinations_.size(), 1);
    for (std::size_t d = 0; d < destinations_.size(); ++d) {
      if (plan != nullptr) in_plan[d] = plan->covers(destinations_[d].bits());
      if (incremental && in_plan[d]) {
        affected[d] = changed.lookup(destinations_[d]) != FlatPrefixIndex::kNotFound;
      }
    }
    std::vector<char> used(destinations_.size(), 0);
    std::vector<char> needed(destinations_.size(), 0);
    run = ++stats_.runs;
    for (std::size_t i = 0; i < policies_.size(); ++i) {
      std::span<const std::size_t> dests(policy_destinations_.data() + policy_begin_[i],
                                         policy_begin_[i + 1] - policy_begin_[i]);
      if (!std::all_of(dests.begin(), dests.end(), [&](std::size_t d) { return in_plan[d]; })) {
        ++result.deferred_policies;
        continue;
      }
      ++result.evaluated_policies;
      covered[i] = 1;
      for (std::size_t d : dests) used[d] = 1;
      bool reuse = incremental && verdict_runs_[i] != 0 && verdict_runs_[i] + 1 == run &&
                   std::none_of(dests.begin(), dests.end(),
                                [&](std::size_t d) { return affected[d]; });
      if (reuse) {
        verdict_runs_[i] = run;
        ++stats_.reused_policies;
      } else {
        todo.push_back(i);
        for (std::size_t d : dests) needed[d] = 1;
      }
    }
    for (std::size_t d = 0; d < destinations_.size(); ++d) {
      if (!used[d]) continue;
      ++stats_.destinations;
      if (!needed[d]) ++stats_.delta_skips;
    }
  }

  // Check policy todo[k] into fresh[k]; a pool only splits the list.
  std::vector<std::vector<Violation>> fresh(todo.size());
  auto check = [&](std::size_t k) { policies_[todo[k]]->check(snapshot, fresh[k]); };
  std::shared_ptr<ThreadPool> pool = todo.empty() ? nullptr : thread_pool();
  if (pool == nullptr) {
    for (std::size_t k = 0; k < todo.size(); ++k) check(k);
  } else {
    // lookup() builds per-router indices lazily and is not safe for
    // concurrent first calls; build them all before fanning out.
    snapshot.warm_lookup_cache();
    pool->parallel_for(todo.size(), check);
  }

  // Merge in policy order: byte-identical whichever policies were reused
  // and however many threads checked the rest.
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < todo.size(); ++k) {
    verdicts_[todo[k]] = std::move(fresh[k]);
    verdict_runs_[todo[k]] = run;
  }
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    if (!covered[i]) continue;
    result.violations.insert(result.violations.end(), verdicts_[i].begin(), verdicts_[i].end());
  }
  return result;
}

std::shared_ptr<ThreadPool> Verifier::thread_pool() const {
  unsigned threads = resolve_num_threads(options_.num_threads);
  if (threads == 1) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_ == nullptr) pool_ = std::make_shared<ThreadPool>(threads);
  return pool_;
}

VerifyStats Verifier::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Verifier::clear_cache() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::vector<Violation>& violations : verdicts_) violations.clear();
  std::fill(verdict_runs_.begin(), verdict_runs_.end(), 0);
}

VerdictComparison compare_verdicts(const Verifier& verifier, const DataPlaneSnapshot& observed,
                                   const DataPlaneSnapshot& truth) {
  VerdictComparison comparison;
  for (const auto& policy : verifier.policies()) {
    std::vector<Violation> observed_violations;
    policy->check(observed, observed_violations);
    std::vector<Violation> truth_violations;
    policy->check(truth, truth_violations);

    bool observed_flags = !observed_violations.empty();
    bool truth_flags = !truth_violations.empty();
    if (observed_flags == truth_flags) {
      ++comparison.agree;
    } else if (observed_flags) {
      ++comparison.false_alarms;
    } else {
      ++comparison.missed;
    }
  }
  return comparison;
}

}  // namespace hbguard
