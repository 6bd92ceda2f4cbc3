#include "hbguard/hbr/pattern_miner.hpp"

#include <algorithm>
#include <array>

namespace hbguard {

std::string_view to_string(PatternContext context) {
  switch (context) {
    case PatternContext::kSameRouterSamePrefix: return "same-router-same-prefix";
    case PatternContext::kSameRouterAny: return "same-router";
    case PatternContext::kCrossRouterPeer: return "cross-router-peer";
  }
  return "?";
}

namespace {

constexpr std::array<PatternContext, 3> kContexts = {
    PatternContext::kSameRouterSamePrefix,
    PatternContext::kSameRouterAny,
    PatternContext::kCrossRouterPeer,
};

bool in_context(PatternContext context, const IoRecord& candidate, const IoRecord& record) {
  switch (context) {
    case PatternContext::kSameRouterSamePrefix:
      return candidate.router == record.router && candidate.prefix.has_value() &&
             record.prefix.has_value() && *candidate.prefix == *record.prefix;
    case PatternContext::kSameRouterAny:
      return candidate.router == record.router;
    case PatternContext::kCrossRouterPeer:
      return candidate.router == record.peer && candidate.peer == record.router &&
             (!candidate.prefix.has_value() || !record.prefix.has_value() ||
              *candidate.prefix == *record.prefix);
  }
  return false;
}

std::vector<const IoRecord*> observable_order(std::span<const IoRecord> records) {
  std::vector<const IoRecord*> ordered;
  ordered.reserve(records.size());
  for (const IoRecord& r : records) ordered.push_back(&r);
  std::sort(ordered.begin(), ordered.end(), [](const IoRecord* a, const IoRecord* b) {
    return a->logged_time != b->logged_time ? a->logged_time < b->logged_time : a->id < b->id;
  });
  return ordered;
}

/// Most recent record before index i that shares `context` with ordered[i],
/// within the window.
const IoRecord* find_candidate(const std::vector<const IoRecord*>& ordered, std::size_t i,
                               PatternContext context, SimTime window_us) {
  const IoRecord& record = *ordered[i];
  for (std::size_t back = i; back-- > 0;) {
    const IoRecord& candidate = *ordered[back];
    if (candidate.logged_time < record.logged_time - window_us) break;
    if (in_context(context, candidate, record)) return &candidate;
  }
  return nullptr;
}

}  // namespace

void PatternMiner::train(std::span<const IoRecord> records) {
  auto ordered = observable_order(records);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const IoRecord& record = *ordered[i];
    for (PatternContext context : kContexts) {
      const IoRecord* candidate = find_candidate(ordered, i, context, options_.window_us);
      if (candidate == nullptr) continue;
      ++stats_[{IoSignature::of(*candidate), IoSignature::of(record), context}].pair_count;
    }
  }
  // Recompute rhs totals: total occurrences of (rhs signature, context)
  // among recorded pairs.
  std::map<std::pair<IoSignature, PatternContext>, std::size_t> totals;
  for (const auto& [key, stats] : stats_) {
    totals[{key.rhs, key.context}] += stats.pair_count;
  }
  for (auto& [key, stats] : stats_) {
    stats.rhs_count = totals[{key.rhs, key.context}];
  }
}

std::vector<InferredHbr> PatternMiner::infer(std::span<const IoRecord> records) const {
  auto ordered = observable_order(records);
  std::vector<InferredHbr> edges;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const IoRecord& record = *ordered[i];
    for (PatternContext context : kContexts) {
      const IoRecord* candidate = find_candidate(ordered, i, context, options_.window_us);
      if (candidate == nullptr) continue;
      auto it = stats_.find({IoSignature::of(*candidate), IoSignature::of(record), context});
      if (it == stats_.end()) continue;
      const PatternStats& stats = it->second;
      if (stats.pair_count < options_.min_support) continue;
      double confidence = stats.confidence();
      if (confidence < options_.min_confidence) continue;
      edges.push_back({candidate->id, record.id, confidence,
                       std::string("pattern:") + std::string(to_string(context))});
    }
  }
  return edges;
}

}  // namespace hbguard
