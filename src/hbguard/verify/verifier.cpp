#include "hbguard/verify/verifier.hpp"

#include <span>

namespace hbguard {

namespace {

/// Call `visit(d)` once for each index d of `destinations` (ascending bits)
/// inside one of `changed` (ascending prefixes), in ascending order: two
/// binary searches per prefix. Prefixes in Prefix order start in ascending
/// order, so a prefix nested in an earlier one adds nothing.
template <typename Visit>
void for_each_affected(const std::vector<std::uint32_t>& destinations,
                       const std::vector<Prefix>& changed, Visit visit) {
  auto visited_end = destinations.begin();
  for (const Prefix& prefix : changed) {
    std::uint32_t first = prefix.address().bits();
    std::uint32_t last = first | ~mask_bits(prefix.length());
    auto begin = std::lower_bound(visited_end, destinations.end(), first);
    auto end = std::upper_bound(begin, destinations.end(), last);
    for (auto it = begin; it != end; ++it) {
      visit(static_cast<std::size_t>(it - destinations.begin()));
    }
    visited_end = std::max(visited_end, end);
  }
}

}  // namespace

Verifier::Verifier(PolicyList policies, VerifierOptions options, std::shared_ptr<ThreadPool> pool)
    : policies_(std::move(policies)),
      options_(options),
      pool_(std::move(pool)),
      verdicts_(policies_.size()),
      stale_(policies_.size(), 1),
      stale_count_(policies_.size()) {}

void Verifier::index_destinations() const {
  std::vector<std::uint32_t> bits;
  policy_begin_.reserve(policies_.size() + 1);
  policy_begin_.push_back(0);
  for (const auto& policy : policies_) {
    for (const Prefix& prefix : policy->prefixes()) bits.push_back(representative(prefix).bits());
    policy_begin_.push_back(bits.size());
  }
  destinations_ = bits;
  std::sort(destinations_.begin(), destinations_.end());
  destinations_.erase(std::unique(destinations_.begin(), destinations_.end()),
                      destinations_.end());
  policy_destinations_.reserve(bits.size());
  for (std::uint32_t b : bits) {
    policy_destinations_.push_back(static_cast<std::size_t>(
        std::lower_bound(destinations_.begin(), destinations_.end(), b) - destinations_.begin()));
  }
  destination_policies_.resize(destinations_.size());
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    for (std::size_t k = policy_begin_[i]; k < policy_begin_[i + 1]; ++k) {
      destination_policies_[policy_destinations_[k]].push_back(i);
    }
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
  // Decide per policy: deferred by the plan, checked now, or reused (it is
  // not stale and the delta touches none of its destinations).
  const bool incremental = delta != nullptr && !delta->full;
  VerifyResult result;
  std::vector<std::size_t> todo;
  std::vector<char> covered;  // by policy; empty: the call covers every policy
  auto in_call = [&covered](std::size_t i) { return covered.empty() || covered[i] != 0; };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (policy_begin_.empty()) index_destinations();
    ++stats_.runs;
    auto dests = [&](std::size_t i) {
      return std::span<const std::size_t>(policy_destinations_.data() + policy_begin_[i],
                                          policy_begin_[i + 1] - policy_begin_[i]);
    };

    // A plan covers a policy when it covers all of its destinations; the
    // others are deferred and go stale.
    std::size_t used = destinations_.size();
    if (plan != nullptr) {
      std::vector<char> in_plan(destinations_.size());
      for (std::size_t d = 0; d < destinations_.size(); ++d) {
        in_plan[d] = plan->covers(destinations_[d]);
      }
      covered.assign(policies_.size(), 1);
      std::vector<char> used_by(destinations_.size(), 0);
      for (std::size_t i = 0; i < policies_.size(); ++i) {
        std::span<const std::size_t> own = dests(i);
        if (!std::all_of(own.begin(), own.end(), [&](std::size_t d) { return in_plan[d]; })) {
          covered[i] = 0;
          ++result.deferred_policies;
          if (!stale_[i]) {
            stale_[i] = 1;
            ++stale_count_;
          }
          continue;
        }
        for (std::size_t d : own) used_by[d] = 1;
      }
      used = static_cast<std::size_t>(std::count(used_by.begin(), used_by.end(), 1));
    }
    result.evaluated_policies = policies_.size() - result.deferred_policies;

    // To check, of the covered policies: the stale ones (all of them under
    // a full delta) and those with a destination inside a changed prefix.
    if (!incremental || stale_count_ > 0) {
      for (std::size_t i = 0; i < policies_.size(); ++i) {
        if (in_call(i) && (!incremental || stale_[i])) todo.push_back(i);
      }
    }
    if (incremental) {
      for_each_affected(destinations_, delta->changed_prefixes, [&](std::size_t d) {
        for (std::size_t i : destination_policies_[d]) {
          if (!stale_[i] && in_call(i)) todo.push_back(i);
        }
      });
      std::sort(todo.begin(), todo.end());
      todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    }

    // A covered destination is skipped when no policy to check needs it.
    std::vector<std::size_t> needed;
    for (std::size_t i : todo) {
      std::span<const std::size_t> own = dests(i);
      needed.insert(needed.end(), own.begin(), own.end());
    }
    std::sort(needed.begin(), needed.end());
    std::size_t distinct_needed = static_cast<std::size_t>(
        std::unique(needed.begin(), needed.end()) - needed.begin());
    stats_.destinations += used;
    stats_.delta_skips += used - distinct_needed;
    stats_.reused_policies += result.evaluated_policies - todo.size();
  }

  // Check policy todo[k] into fresh[k]; a pool only splits the list.
  std::vector<std::vector<Violation>> fresh(todo.size());
  auto check = [&](std::size_t k) { policies_[todo[k]]->check(snapshot, fresh[k]); };
  std::shared_ptr<ThreadPool> pool = todo.empty() ? nullptr : thread_pool();
  if (pool == nullptr) {
    for (std::size_t k = 0; k < todo.size(); ++k) check(k);
  } else {
    pool->parallel_for(todo.size(), check);
  }

  // Store the fresh verdicts, then merge in policy order over the policies
  // holding violations: byte-identical whichever policies were reused and
  // however many threads checked the rest.
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < todo.size(); ++k) {
    verdicts_[todo[k]] = std::move(fresh[k]);
    if (stale_[todo[k]]) {
      stale_[todo[k]] = 0;
      --stale_count_;
    }
  }
  std::erase_if(violating_, [&](std::size_t i) { return verdicts_[i].empty(); });
  auto held = static_cast<std::ptrdiff_t>(violating_.size());
  for (std::size_t i : todo) {
    if (!verdicts_[i].empty()) violating_.push_back(i);
  }
  std::inplace_merge(violating_.begin(), violating_.begin() + held, violating_.end());
  violating_.erase(std::unique(violating_.begin(), violating_.end()), violating_.end());
  for (std::size_t i : violating_) {
    if (in_call(i)) {
      result.violations.insert(result.violations.end(), verdicts_[i].begin(),
                               verdicts_[i].end());
    }
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
  for (std::size_t i : violating_) verdicts_[i].clear();
  violating_.clear();
  std::fill(stale_.begin(), stale_.end(), 1);
  stale_count_ = policies_.size();
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
