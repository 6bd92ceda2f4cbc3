#include "hbguard/daemon/replay_session.hpp"

#include <algorithm>

#include "hbguard/util/crash_point.hpp"

namespace hbguard {

ReplayGuardSession::ReplayGuardSession(ReplaySessionOptions options)
    : options_(std::move(options)) {
  network_ = std::make_unique<Network>(Topology{}, NetworkOptions{});
  if (options_.stream_health) network_->capture().enable_stream_health();
  guard_ = std::make_unique<Guard>(*network_, options_.policies, options_.guard);
}

ReplayGuardSession::~ReplayGuardSession() = default;

bool ReplayGuardSession::scan_due_before(const IoRecord& next) const {
  if (options_.scan_every_us <= 0 || !cadence_primed_) return false;
  return next_scan_at_ <= next.logged_time;
}

bool ReplayGuardSession::scan_due_now() const {
  if (scan_requested_) return true;
  return options_.scan_delta_threshold > 0 && since_scan_ >= options_.scan_delta_threshold;
}

void ReplayGuardSession::deliver(IoRecord record) {
  if (!cadence_primed_) {
    cadence_primed_ = true;
    next_scan_at_ = record.logged_time + options_.scan_every_us;
  }
  watermark_ = std::max(watermark_, record.logged_time);
  // The watermark only moves forward, so delivery time is monotone even
  // when per-router clock skew interleaves stamps.
  network_->capture().deliver(std::move(record), std::max(watermark_, network_->sim().now()));
  ++delivered_;
  ++since_scan_;
  crash_point("post-deliver");
}

void ReplayGuardSession::scan_at(SimTime when) {
  network_->sim().run(std::max(when, network_->sim().now()));
  if (fast_forward_) {
    // Keep the capture's clock-driven side effects (gap grace windows
    // expiring into the store) on the exact schedule a real scan would
    // have; the guard's own work is what the checkpoint already paid for.
    network_->capture().tick_health(network_->sim().now());
  } else {
    crash_point("mid-scan");
    guard_->scan();
    crash_point("post-scan");
  }
  ++scans_run_;
  since_scan_ = 0;
  scan_requested_ = false;
}

void ReplayGuardSession::run_one_due_scan() {
  if (cadence_primed_ && options_.scan_every_us > 0 && next_scan_at_ <= watermark_) {
    SimTime at = next_scan_at_;
    next_scan_at_ += options_.scan_every_us;
    scan_at(at);
    return;
  }
  if (scan_due_now()) {
    scan_at(watermark_);
    return;
  }
  // A cadence boundary beyond the watermark (scan_due_before the *next*
  // record, which has not been delivered yet): scan at the boundary itself.
  if (cadence_primed_ && options_.scan_every_us > 0) {
    SimTime at = next_scan_at_;
    next_scan_at_ += options_.scan_every_us;
    scan_at(at);
  }
}

void ReplayGuardSession::finish() {
  if (finished_) return;
  finished_ = true;
  scan_at(watermark_);
}

const GuardReport& ReplayGuardSession::report() const { return guard_->report(); }

GuardReport ReplayGuardSession::run_offline(const std::vector<IoRecord>& records,
                                            const ReplaySessionOptions& options) {
  ReplayGuardSession session(options);
  for (const IoRecord& record : records) {
    while (session.scan_due_before(record)) session.run_one_due_scan();
    session.deliver(record);
    while (session.scan_due_now()) session.run_one_due_scan();
  }
  session.finish();
  return session.report();
}

}  // namespace hbguard
