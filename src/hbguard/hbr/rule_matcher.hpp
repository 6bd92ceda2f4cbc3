// Rule-matching HBR inference (§4.2 "Rule matching").
//
// "Given an I/O that matches the right-hand-side of a rule, we can search
// the (timestamp- and prefix-filtered) stream of I/Os for an I/O that
// matches the left-hand-side of the rule."
//
// The §4.1 rule set has a subtlety the naive per-rule scan misses: several
// rules share a right-hand side (a RIB update can be caused by a received
// advertisement, a configuration change — possibly tens of seconds earlier
// via soft reconfiguration — or a hardware event). Emitting every rule's
// most recent match floods the HBG with false edges. The matcher instead
// groups the competing rules per output kind and links to the *temporally
// closest* matching input, while always keeping the content-matched edge
// (same prefix for BGP, same LSA identity for OSPF) when one exists.
//
// The rules live in one place, RuleMatchEngine (hbr/incremental.hpp);
// RuleMatchingInference is that engine run over a whole span.
#pragma once

#include "hbguard/hbr/inference.hpp"

namespace hbguard {

struct MatcherOptions {
  /// Window for ordinary input→output and output→output rules.
  SimTime short_window_us = 2'000'000;
  /// Window for config→{RIB,FIB,flood} rules; must cover the vendor's
  /// soft-reconfiguration delay (§7 observed ~25 s on IOS).
  SimTime soft_reconfig_window_us = 120'000'000;
  /// Window for cross-router send→recv matching; must cover link delay plus
  /// receiver input-queue wait.
  SimTime cross_router_window_us = 30'000'000;
  /// Tolerated clock skew between routers for cross-router send→recv
  /// matching (per-router clock offsets are not synchronized).
  SimTime cross_router_slack_us = 250'000;
  /// Tolerated local log-timestamp noise (same-router rules). Keep 0 when
  /// per-record jitter is negligible; raising it lets the matcher consider
  /// causes logged slightly *after* their effects.
  SimTime local_slack_us = 0;
};

/// Batch rule matching: a fresh RuleMatchEngine fed `records` in capture
/// order, so the edges (and their order) are exactly the ones an
/// IncrementalHbgBuilder appending the same records emits.
class RuleMatchingInference : public HbrInferencer {
 public:
  RuleMatchingInference() = default;
  explicit RuleMatchingInference(MatcherOptions options) : options_(options) {}

  std::string name() const override { return "rules"; }
  std::vector<InferredHbr> infer(std::span<const IoRecord> records) const override;

  const MatcherOptions& options() const { return options_; }

 private:
  MatcherOptions options_;
};

}  // namespace hbguard
