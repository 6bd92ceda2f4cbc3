// Root-cause analysis over the happens-before graph (§6).
//
// "By traversing the HBG starting from a problematic FIB update, we can
// determine the sequence of I/Os that led to the policy violation. Any leaf
// nodes we encounter represent the root cause(s) of the event."
#pragma once

#include <string>
#include <vector>

#include "hbguard/hbg/graph.hpp"

namespace hbguard {

enum class CauseKind : std::uint8_t {
  kConfigChange,    // revertible: a configuration change
  kHardwareStatus,  // environmental: link/uplink state change
  kExternalAdvert,  // environmental: route learned from outside the domain
  kInitialConfig,   // the router's bring-up configuration
  kOther,
};

std::string_view to_string(CauseKind kind);

struct RootCause {
  IoId io = kNoIo;
  IoRecord record;  // copy of the leaf I/O
  CauseKind kind = CauseKind::kOther;
  /// One causal chain from this cause to the violating I/O (Fig. 4's
  /// cause→fault path), cause first.
  std::vector<IoId> chain;
};

struct ProvenanceResult {
  /// Causes ranked most-actionable first: recent config changes, then
  /// hardware events, then external advertisements.
  std::vector<RootCause> causes;
  /// The violating I/Os that were analyzed.
  std::vector<IoId> faults;

  /// The best revertible cause (most recent non-initial config change), if
  /// any.
  const RootCause* revertible() const;
};

class RootCauseAnalyzer {
 public:
  struct Options {
    /// Ignore HBG edges below this confidence (§4.2: act only when the
    /// statistical confidence is high enough).
    double min_confidence = 0.9;
  };

  RootCauseAnalyzer() = default;
  explicit RootCauseAnalyzer(Options options) : options_(options) {}

  ProvenanceResult analyze(const HappensBeforeGraph& hbg, IoId violating_io) const;

  /// Analyze several violating I/Os and merge the causes (deduplicated).
  ProvenanceResult analyze_all(const HappensBeforeGraph& hbg,
                               const std::vector<IoId>& violating) const;

  /// Render the fault chains as a human-readable report.
  static std::string render(const HappensBeforeGraph& hbg, const ProvenanceResult& result);

 private:
  Options options_;
};

/// Classify a leaf I/O record.
CauseKind classify_cause(const IoRecord& record);

}  // namespace hbguard
