#include "hbguard/provenance/root_cause.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "hbguard/hbg/render.hpp"

namespace hbguard {

std::string_view to_string(CauseKind kind) {
  switch (kind) {
    case CauseKind::kConfigChange: return "config-change";
    case CauseKind::kHardwareStatus: return "hardware";
    case CauseKind::kExternalAdvert: return "external-advert";
    case CauseKind::kInitialConfig: return "initial-config";
    case CauseKind::kOther: return "other";
  }
  return "?";
}

CauseKind classify_cause(const IoRecord& record) {
  switch (record.kind) {
    case IoKind::kConfigChange:
      return record.detail == "initial configuration" ? CauseKind::kInitialConfig
                                                      : CauseKind::kConfigChange;
    case IoKind::kHardwareStatus:
      return CauseKind::kHardwareStatus;
    case IoKind::kRecvAdvert:
      return record.peer == kExternalRouter ? CauseKind::kExternalAdvert : CauseKind::kOther;
    default:
      return CauseKind::kOther;
  }
}

namespace {
/// Rank: actionable first (config change), then hardware, external,
/// initial config, other; ties broken by recency (newest first).
int rank_of(CauseKind kind) {
  switch (kind) {
    case CauseKind::kConfigChange: return 0;
    case CauseKind::kHardwareStatus: return 1;
    case CauseKind::kExternalAdvert: return 2;
    case CauseKind::kInitialConfig: return 3;
    case CauseKind::kOther: return 4;
  }
  return 5;
}
}  // namespace

const RootCause* ProvenanceResult::revertible() const {
  for (const RootCause& cause : causes) {
    if (cause.kind == CauseKind::kConfigChange) return &cause;
  }
  return nullptr;
}

ProvenanceResult RootCauseAnalyzer::analyze(const HappensBeforeGraph& hbg,
                                            IoId violating_io) const {
  return analyze_all(hbg, {violating_io});
}

ProvenanceResult RootCauseAnalyzer::analyze_all(const HappensBeforeGraph& hbg,
                                                const std::vector<IoId>& violating) const {
  ProvenanceResult result;
  result.faults = violating;
  std::set<IoId> seen;
  for (IoId fault : violating) {
    if (hbg.record(fault) == nullptr) continue;
    for (IoId root : hbg.root_causes(fault, options_.min_confidence)) {
      if (!seen.insert(root).second) continue;
      const IoRecord* record = hbg.record(root);
      if (record == nullptr) continue;
      RootCause cause;
      cause.io = root;
      cause.record = *record;
      cause.kind = classify_cause(*record);
      cause.chain = hbg.path_from(root, fault, options_.min_confidence);
      result.causes.push_back(std::move(cause));
    }
  }
  std::sort(result.causes.begin(), result.causes.end(),
            [](const RootCause& a, const RootCause& b) {
              int ra = rank_of(a.kind), rb = rank_of(b.kind);
              if (ra != rb) return ra < rb;
              return a.record.true_time > b.record.true_time;  // newest first
            });
  return result;
}

std::string RootCauseAnalyzer::render(const HappensBeforeGraph& hbg,
                                      const ProvenanceResult& result) {
  std::ostringstream out;
  out << result.causes.size() << " root cause(s) for " << result.faults.size()
      << " violating I/O(s):\n";
  for (const RootCause& cause : result.causes) {
    out << "- [" << to_string(cause.kind) << "] " << cause.record.label() << "\n";
    if (cause.chain.size() > 1) out << render_chain(hbg, cause.chain);
  }
  return out.str();
}

}  // namespace hbguard
