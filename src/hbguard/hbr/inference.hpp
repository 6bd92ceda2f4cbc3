// Happens-before relationship inference (§4.2).
//
// Given the observable capture stream (logged timestamps, prefixes, session
// names, peers — but *not* the simulator's ground-truth cause links), an
// inferencer proposes directed happens-before edges between I/O records,
// each with a confidence. The paper sketches four techniques — prefix
// filtering, timestamps, protocol rule matching and statistical pattern
// mining — and expects "a combination of these (and other) techniques".
// Implementations here: TimestampInference (naive baseline), RuleMatching
// Inference (§4.2 "Rule matching"), PatternMiningInference (§4.2 "Pattern
// matching"), CombinedInference and the GroundTruthInference oracle.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hbguard/capture/io_record.hpp"

namespace hbguard {

struct InferredHbr {
  IoId from = kNoIo;  // happens before...
  IoId to = kNoIo;    // ...this
  double confidence = 1.0;
  std::string rule;  // which rule/pattern produced the edge

  bool operator==(const InferredHbr& other) const {
    return from == other.from && to == other.to;
  }
};

class HbrInferencer {
 public:
  virtual ~HbrInferencer() = default;
  virtual std::string name() const = 0;
  /// Records are in capture order; implementations may re-sort by
  /// logged_time (the only order observable in practice).
  virtual std::vector<InferredHbr> infer(std::span<const IoRecord> records) const = 0;
};

/// Ground-truth edges from the simulator's cause links (evaluation oracle).
std::vector<InferredHbr> ground_truth_edges(std::span<const IoRecord> records);

/// ground_truth_edges as an inferencer: 1.0-confidence "truth" edges, for
/// building the ground-truth HBG (an oracle ablation; impossible on real
/// routers, whose logs carry no cause links).
class GroundTruthInference : public HbrInferencer {
 public:
  std::string name() const override { return "truth"; }
  std::vector<InferredHbr> infer(std::span<const IoRecord> records) const override {
    return ground_truth_edges(records);
  }
};

/// Precision/recall of `inferred` against the ground truth of `records`.
struct InferenceScore {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;

  double precision() const {
    std::size_t denom = true_positives + false_positives;
    return denom == 0 ? 1.0 : static_cast<double>(true_positives) / static_cast<double>(denom);
  }
  double recall() const {
    std::size_t denom = true_positives + false_negatives;
    return denom == 0 ? 1.0 : static_cast<double>(true_positives) / static_cast<double>(denom);
  }
  double f1() const {
    double p = precision(), r = recall();
    return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

InferenceScore score_inference(std::span<const IoRecord> records,
                               const std::vector<InferredHbr>& inferred);

/// Naive baseline: every I/O on a router happens-before the next I/Os on
/// the same router within a time window ("timestamps cannot be used as the
/// sole mechanism" — this demonstrates why).
class TimestampInference : public HbrInferencer {
 public:
  explicit TimestampInference(SimTime window_us = 50'000, std::size_t fanin = 3)
      : window_us_(window_us), fanin_(fanin) {}
  std::string name() const override { return "timestamp"; }
  std::vector<InferredHbr> infer(std::span<const IoRecord> records) const override;

 private:
  SimTime window_us_;
  std::size_t fanin_;  // how many preceding records each record links to
};

/// Prefix + timestamp filter: link same-prefix I/Os on a router (and
/// cross-router same-prefix send→recv pairs) within a window. Better than
/// timestamps alone, still content-blind.
class PrefixInference : public HbrInferencer {
 public:
  explicit PrefixInference(SimTime window_us = 50'000) : window_us_(window_us) {}
  std::string name() const override { return "prefix"; }
  std::vector<InferredHbr> infer(std::span<const IoRecord> records) const override;

 private:
  SimTime window_us_;
};

/// Union of several inferencers; rule edges dominate pattern edges when the
/// same edge is produced twice (max confidence wins).
class CombinedInference : public HbrInferencer {
 public:
  explicit CombinedInference(std::vector<std::shared_ptr<HbrInferencer>> parts)
      : parts_(std::move(parts)) {}
  std::string name() const override { return "combined"; }
  std::vector<InferredHbr> infer(std::span<const IoRecord> records) const override;

 private:
  std::vector<std::shared_ptr<HbrInferencer>> parts_;
};

}  // namespace hbguard
