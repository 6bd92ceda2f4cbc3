// A guard pipeline hosted over a *replayed* capture stream.
//
// hbguardd ingests records that were stamped elsewhere (a tap, a trace
// file); there is no simulated network generating events. The session hosts
// an empty-topology Network purely as the guard's clock + capture store,
// advances virtual time to the stream's watermark (the max logged_time
// seen), and triggers scans on a virtual-time cadence and/or an on-delta
// record threshold.
//
// Digest parity by construction: the scan schedule is a pure function of
// the delivered record sequence (cadence boundaries are checked against
// each record's stamp *before* it is delivered; the delta counter is
// checked after). run_offline() and the daemon's event loop both follow
// this canonical loop:
//
//     for each record r:
//       while (scan_due_before(r)) run_one_due_scan();
//       deliver(r);
//       while (scan_due_now())     run_one_due_scan();
//     finish();
//
// so streaming a trace through a socket yields a GuardReport::digest()
// byte-identical to the synchronous pass over the same records — at any
// thread count, with amortized compact() on or off (see tests/test_daemon).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hbguard/core/guard.hpp"
#include "hbguard/sim/network.hpp"

namespace hbguard {

struct ReplaySessionOptions {
  GuardOptions guard;
  PolicyList policies;
  /// Virtual-time scan cadence over the replayed stream (0 = cadence off).
  /// Distinct from GuardOptions::scan_interval_us, which paces Guard::run()
  /// over a *live* simulation — here the stream itself is the clock.
  SimTime scan_every_us = 100'000;
  /// >0: also scan whenever this many records arrived since the last scan.
  std::size_t scan_delta_threshold = 0;
  /// Per-router stream-health admission for the replayed records (gap and
  /// duplicate accounting when a lossy path — e.g. a daemon dropping under
  /// backpressure — feeds the session).
  bool stream_health = true;
};

class ReplayGuardSession {
 public:
  explicit ReplayGuardSession(ReplaySessionOptions options);
  ~ReplayGuardSession();
  ReplayGuardSession(const ReplayGuardSession&) = delete;
  ReplayGuardSession& operator=(const ReplayGuardSession&) = delete;

  /// True when a cadence boundary at or before `next`'s stamp is pending —
  /// a scan must run before `next` may be delivered.
  bool scan_due_before(const IoRecord& next) const;

  /// True when the on-delta threshold (or an explicit request_scan) calls
  /// for a scan over what has already been delivered.
  bool scan_due_now() const;

  /// Feed one pre-stamped record into the capture store, which takes it
  /// over (a caller done with the record moves it in). Must not be called
  /// while scan_due_before(record) holds (the canonical loop above).
  void deliver(IoRecord record);

  /// Run the earliest pending scan (one cadence boundary, or the delta /
  /// requested scan at the watermark). Advances virtual time.
  void run_one_due_scan();

  /// Ask for a scan at the current watermark (the control plane's `scan`
  /// RPC); scan_due_now() turns true until it runs.
  void request_scan() { scan_requested_ = true; }
  /// An explicitly requested scan is pending (vs. a delta-threshold one) —
  /// the daemon WALs requested scans at execution time using this.
  bool scan_requested() const { return scan_requested_; }

  /// Fast-forward replay (recovery): the canonical loop runs unchanged —
  /// cadence arithmetic, delivery times, health ticks — but scan
  /// boundaries skip the guard itself (its state comes from the
  /// checkpoint, and daemon scans never mutate the capture or network, so
  /// skipping them is observationally identical to re-running them).
  /// scans_run() still counts the skipped boundaries.
  void set_fast_forward(bool on) { fast_forward_ = on; }
  bool fast_forward() const { return fast_forward_; }

  /// Tail scan over everything delivered; call once when the stream ends.
  /// Idempotent.
  void finish();
  bool finished() const { return finished_; }

  const GuardReport& report() const;
  std::string digest() const { return report().digest(); }

  Guard& guard() { return *guard_; }
  const Guard& guard() const { return *guard_; }
  Network& network() { return *network_; }
  const Network& network() const { return *network_; }

  std::size_t records_delivered() const { return delivered_; }
  SimTime watermark() const { return watermark_; }
  std::size_t scans_run() const { return scans_run_; }

  /// The canonical synchronous pass (see the file comment): the digest any
  /// transport-level replay of `records` must reproduce.
  static GuardReport run_offline(const std::vector<IoRecord>& records,
                                 const ReplaySessionOptions& options);

 private:
  void scan_at(SimTime when);

  ReplaySessionOptions options_;
  std::unique_ptr<Network> network_;  // empty topology: clock + capture host
  std::unique_ptr<Guard> guard_;

  SimTime watermark_ = 0;
  SimTime next_scan_at_ = 0;   // first cadence boundary; 0 until first record
  bool cadence_primed_ = false;
  std::size_t since_scan_ = 0;  // records delivered since the last scan
  std::size_t delivered_ = 0;
  std::size_t scans_run_ = 0;
  bool scan_requested_ = false;
  bool finished_ = false;
  bool fast_forward_ = false;
};

}  // namespace hbguard
