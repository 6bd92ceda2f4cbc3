// Crash recovery: rebuild a ReplayGuardSession from checkpoint + WAL.
//
// The WAL (capture/wal.hpp) holds the delivered record sequence and the
// executed control actions in execution order; the canonical deliver/scan
// loop makes the scan schedule a pure function of that sequence. Replaying
// the whole log therefore reconstructs the session byte-identically —
// GuardReport::digest() parity with an uninterrupted run — and a
// checkpoint (snapshot/checkpoint.hpp) merely shortcuts the prefix:
//
//   1. scan the WAL once in repair mode (truncate any torn tail),
//   2. pick the newest checkpoint whose fingerprint matches and whose lsn
//      does not exceed the repaired log (stale or corrupt generations are
//      skipped, down to full replay from zero),
//   3. replay the prefix in *fast-forward* (records delivered, cadence and
//      health ticked, guard scans skipped — their result is the
//      checkpoint), import the checkpointed guard state at the boundary,
//      then replay the suffix for real. The boundary is the point past the
//      checkpoint's LSN where the replay has run as many scans as the
//      checkpointed report counts: the daemon may checkpoint after a scan
//      due before the next record, or before a delta-threshold scan.
//
// Controls replay through apply_logged_control in both phases; during
// fast-forward they are no-ops by construction (the proposal queue they
// would touch lives in the checkpoint, and mode changes are not
// checkpointed state, so executing them for real is exactly right).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hbguard/capture/wal.hpp"
#include "hbguard/daemon/replay_session.hpp"

namespace hbguard {

/// Session-config identity stamped into WAL headers and checkpoints: a
/// durable state dir may only be resumed by a daemon configured to produce
/// the same digest (mode, cadence, delta threshold, stream health,
/// policies). Mismatch → refuse, don't silently diverge.
std::string session_fingerprint(const ReplaySessionOptions& options);

/// Execute one logged control action ("scan", "finish", "mode <m>",
/// "repairs approve|decline|revert <id>") against the session, exactly as
/// the daemon did when it logged the line. Returns the daemon-style
/// "ok ..."/"err ..." message (deterministic, so replays agree).
std::string apply_logged_control(ReplayGuardSession& session, const std::string& line);

struct RecoveryResult {
  bool ok = false;
  std::string error;  // set when !ok (fingerprint mismatch, I/O failure)
  /// The reconstructed session (non-null iff ok). Fresh when the WAL was
  /// empty or absent.
  std::unique_ptr<ReplayGuardSession> session;
  WalScanStats wal;  // post-repair scan statistics
  bool used_checkpoint = false;
  std::uint64_t checkpoint_generation = 0;
  std::uint64_t checkpoint_lsn = 0;
  /// Checkpoint files passed over as corrupt, mismatched, or claiming more
  /// WAL than exists (the stale-generation fallback path).
  std::uint64_t checkpoints_skipped = 0;
  std::uint64_t fast_forwarded_entries = 0;  // prefix covered by the checkpoint
  std::uint64_t replayed_entries = 0;        // suffix re-executed for real
  double seconds = 0.0;                      // wall-clock recovery time
};

/// Repair the WAL in `state_dir` and rebuild the session it describes.
/// Never deletes WAL data beyond torn-tail repair; checkpoint GC is the
/// daemon's job at its next checkpoint.
RecoveryResult recover_session(const std::string& state_dir,
                               const ReplaySessionOptions& options);

/// The run_offline oracle extended with control actions: `controls` are
/// (position, line) pairs executed after `position` records have been
/// delivered (position == records.size() → after the stream, before the
/// final finish). This is the digest any crash/restart cycle with the same
/// logged controls must reproduce.
GuardReport run_offline_with_controls(
    const std::vector<IoRecord>& records, const ReplaySessionOptions& options,
    const std::vector<std::pair<std::size_t, std::string>>& controls);

}  // namespace hbguard
