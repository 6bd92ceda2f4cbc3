// Statistical pattern mining for HBR inference (§4.2 "Pattern matching").
//
// "To avoid the need for a detailed understanding of protocol
// implementations, we could instead look for I/O patterns in
// policy-compliant networks. If one I/O frequently occurs after another
// I/O, then we could infer the former must happen-before the latter."
//
// The miner is trained on one or more traces from known-good runs: for
// every record it finds the most recent preceding record in each candidate
// relationship context (same router & prefix, same router, cross-router
// peer & prefix) and counts signature pairs. At inference time the same
// candidate search is performed; a pair is emitted as an HBR iff its
// learned conditional frequency clears a confidence threshold — the paper's
// "statistical confidence attached to each inferred HBR".
#pragma once

#include <cstdint>
#include <map>
#include <span>

#include "hbguard/hbr/inference.hpp"

namespace hbguard {

/// Relationship contexts the miner considers between candidate and record.
enum class PatternContext : std::uint8_t {
  kSameRouterSamePrefix,
  kSameRouterAny,
  kCrossRouterPeer,
};

std::string_view to_string(PatternContext context);

/// Observable signature of one I/O for pattern purposes.
struct IoSignature {
  IoKind kind;
  Protocol protocol;
  bool withdraw;

  auto operator<=>(const IoSignature&) const = default;
  static IoSignature of(const IoRecord& record) {
    return {record.kind, record.protocol, record.withdraw};
  }
};

struct PatternKey {
  IoSignature lhs;
  IoSignature rhs;
  PatternContext context;

  auto operator<=>(const PatternKey&) const = default;
};

struct PatternStats {
  std::size_t pair_count = 0;   // lhs seen immediately before rhs in context
  std::size_t rhs_count = 0;    // rhs occurrences where context had any candidate
  double confidence() const {
    return rhs_count == 0 ? 0.0
                          : static_cast<double>(pair_count) / static_cast<double>(rhs_count);
  }
};

class PatternMiner {
 public:
  struct Options {
    SimTime window_us = 2'000'000;
    double min_confidence = 0.6;
    std::size_t min_support = 3;
  };

  PatternMiner() = default;
  explicit PatternMiner(Options options) : options_(options) {}

  /// Accumulate statistics from a policy-compliant trace. Can be called
  /// multiple times (more training data).
  void train(std::span<const IoRecord> records);

  /// Propose edges on a (possibly broken) trace using the learned patterns.
  std::vector<InferredHbr> infer(std::span<const IoRecord> records) const;

  const std::map<PatternKey, PatternStats>& patterns() const { return stats_; }
  Options& options() { return options_; }

 private:
  Options options_;
  std::map<PatternKey, PatternStats> stats_;
};

/// Adapter implementing the HbrInferencer interface over a trained miner.
class PatternMiningInference : public HbrInferencer {
 public:
  explicit PatternMiningInference(PatternMiner miner) : miner_(std::move(miner)) {}
  std::string name() const override { return "patterns"; }
  std::vector<InferredHbr> infer(std::span<const IoRecord> records) const override {
    return miner_.infer(records);
  }
  const PatternMiner& miner() const { return miner_; }

 private:
  PatternMiner miner_;
};

}  // namespace hbguard
