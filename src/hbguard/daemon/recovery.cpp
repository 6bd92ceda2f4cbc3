#include "hbguard/daemon/recovery.hpp"

#include <chrono>
#include <optional>
#include <sstream>

#include "hbguard/core/guard_state.hpp"
#include "hbguard/snapshot/checkpoint.hpp"
#include "hbguard/util/logging.hpp"
#include "hbguard/util/strings.hpp"

namespace hbguard {

std::string session_fingerprint(const ReplaySessionOptions& options) {
  std::ostringstream out;
  out << "hbguardd/1 mode=" << to_string(options.guard.repair)
      << " cadence=" << options.scan_every_us
      << " delta=" << options.scan_delta_threshold
      << " health=" << (options.stream_health ? 1 : 0)
      << " conf=" << options.guard.min_confidence << " policies=";
  for (std::size_t index = 0; index < options.policies.size(); ++index) {
    if (index > 0) out << ',';
    out << options.policies[index]->name();
  }
  return out.str();
}

std::string apply_logged_control(ReplayGuardSession& session, const std::string& line) {
  std::vector<std::string> words = split(trim(line), ' ');
  if (words.empty()) return "err empty control";
  const std::string& cmd = words[0];

  if (cmd == "scan") {
    session.request_scan();
    while (session.scan_due_now()) session.run_one_due_scan();
    return "ok scan complete at watermark " + std::to_string(session.watermark());
  }
  if (cmd == "finish") {
    session.finish();
    return "ok finished (tail scan complete)";
  }
  if (cmd == "mode") {
    if (words.size() != 2) return "err usage: mode report|propose";
    RepairMode mode;
    if (words[1] == "report") {
      mode = RepairMode::kReport;
    } else if (words[1] == "propose" || words[1] == "propose-only") {
      mode = RepairMode::kProposeOnly;
    } else {
      return "err unknown mode: " + words[1] + " (try: report propose)";
    }
    if (!session.guard().set_repair_mode(mode)) {
      return "err mode is switchable only between the diagnose-only modes "
             "(report, propose)";
    }
    return "ok mode " + std::string(to_string(mode));
  }
  if (cmd == "repairs" && words.size() == 3) {
    std::optional<std::uint64_t> id = parse_unsigned(words[2]);
    if (!id) return "err bad id: " + words[2];
    Guard::ProposalOutcome outcome;
    if (words[1] == "approve") {
      outcome = session.guard().approve_proposal(*id);
    } else if (words[1] == "decline") {
      outcome = session.guard().decline_proposal(*id);
    } else if (words[1] == "revert") {
      outcome = session.guard().revert_repair(*id);
    } else {
      return "err unknown repairs action: " + words[1];
    }
    return (outcome.ok ? "ok " : "err ") + outcome.message;
  }
  return "err unknown control: " + line;
}

RecoveryResult recover_session(const std::string& state_dir,
                               const ReplaySessionOptions& options) {
  auto started = std::chrono::steady_clock::now();
  RecoveryResult result;
  std::string expected = session_fingerprint(options);

  // Pass 1: repair. Torn tails from a crash mid-write are truncated so the
  // entry count below is exactly what a resumed GuardWal appends after.
  std::string error;
  if (!scan_wal(state_dir, nullptr, nullptr, result.wal, /*repair=*/true, &error)) {
    result.error = "wal repair scan failed: " + error;
    return result;
  }
  if (result.wal.segments > 0 && result.wal.fingerprint != expected) {
    result.error = "state dir " + state_dir + " belongs to a different session config (\"" +
                   result.wal.fingerprint + "\" vs \"" + expected + "\")";
    return result;
  }

  // Pick the newest usable checkpoint. A checkpoint claiming more WAL than
  // exists is a stale generation (older session, or written past a tail we
  // just truncated) — skipped, like any corrupt or mismatched file.
  GuardPersistentState state;
  std::vector<CheckpointFileInfo> checkpoints = list_checkpoints(state_dir);
  for (std::size_t index = checkpoints.size(); index-- > 0;) {
    Checkpoint candidate;
    std::string why;
    if (!load_checkpoint(checkpoints[index].path, candidate, &why)) {
      HBG_WARN << "recovery: skipping " << checkpoints[index].path << ": " << why;
      ++result.checkpoints_skipped;
      continue;
    }
    if (candidate.fingerprint != expected) {
      HBG_WARN << "recovery: skipping " << checkpoints[index].path
               << ": fingerprint mismatch";
      ++result.checkpoints_skipped;
      continue;
    }
    if (candidate.lsn > result.wal.entries) {
      HBG_WARN << "recovery: skipping " << checkpoints[index].path << ": lsn "
               << candidate.lsn << " exceeds the " << result.wal.entries
               << "-entry log (stale generation)";
      ++result.checkpoints_skipped;
      continue;
    }
    if (!decode_guard_state(candidate.payload, state)) {
      HBG_WARN << "recovery: skipping " << checkpoints[index].path
               << ": undecodable guard state";
      ++result.checkpoints_skipped;
      continue;
    }
    result.used_checkpoint = true;
    result.checkpoint_generation = candidate.generation;
    result.checkpoint_lsn = candidate.lsn;
    break;
  }

  // Pass 2: rebuild. Prefix in fast-forward (the checkpoint is those scans'
  // result), import at the boundary, suffix for real.
  result.session = std::make_unique<ReplayGuardSession>(options);
  ReplayGuardSession& session = *result.session;
  bool fast_forwarding = result.used_checkpoint && result.checkpoint_lsn > 0;
  session.set_fast_forward(fast_forwarding);
  // The daemon checkpoints between drain passes, so a checkpoint at LSN L
  // need not sit between two entries' scans. A pass may stop right after a
  // scan, leaving the checkpoint with scans that were due before entry L,
  // which was not delivered yet; or a control line may end the pass after
  // entry L - 1 was delivered but before the scan its delta threshold
  // called for. The boundary is where the replay's scan count meets the
  // checkpoint's: skip the scans it holds in fast-forward, and run the ones
  // it lacks for real.
  auto cross_boundary = [&] {
    while (session.scans_run() < state.report.scans) session.run_one_due_scan();
    session.guard().import_state(std::move(state));
    session.set_fast_forward(false);
    fast_forwarding = false;
  };
  auto on_record = [&](const IoRecord& record, std::uint64_t lsn) {
    if (fast_forwarding && lsn >= result.checkpoint_lsn) cross_boundary();
    while (session.scan_due_before(record)) session.run_one_due_scan();
    session.deliver(record);
    if (fast_forwarding && lsn + 1 == result.checkpoint_lsn &&
        session.scans_run() == state.report.scans) {
      cross_boundary();
    }
    while (session.scan_due_now()) session.run_one_due_scan();
  };
  auto on_control = [&](const std::string& line, std::uint64_t lsn) {
    if (fast_forwarding && lsn >= result.checkpoint_lsn) cross_boundary();
    apply_logged_control(session, line);
  };
  WalScanStats replay_stats;
  if (!scan_wal(state_dir, on_record, on_control, replay_stats, /*repair=*/false,
                &error)) {
    result.error = "wal replay failed: " + error;
    result.session.reset();
    return result;
  }
  if (fast_forwarding) cross_boundary();  // checkpoint at the very tip
  if (result.used_checkpoint && result.checkpoint_lsn == 0) {
    // An empty-prefix checkpoint still carries state (e.g. a fresh daemon
    // checkpointing at startup); apply it without any fast-forward.
    session.guard().import_state(std::move(state));
  }
  result.fast_forwarded_entries = result.used_checkpoint ? result.checkpoint_lsn : 0;
  result.replayed_entries = result.wal.entries - result.fast_forwarded_entries;
  result.ok = true;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return result;
}

GuardReport run_offline_with_controls(
    const std::vector<IoRecord>& records, const ReplaySessionOptions& options,
    const std::vector<std::pair<std::size_t, std::string>>& controls) {
  ReplayGuardSession session(options);
  std::size_t next = 0;
  auto apply_at = [&](std::size_t position) {
    while (next < controls.size() && controls[next].first <= position) {
      apply_logged_control(session, controls[next].second);
      ++next;
    }
  };
  for (std::size_t index = 0; index < records.size(); ++index) {
    apply_at(index);
    const IoRecord& record = records[index];
    while (session.scan_due_before(record)) session.run_one_due_scan();
    session.deliver(record);
    while (session.scan_due_now()) session.run_one_due_scan();
  }
  apply_at(records.size());
  session.finish();
  return session.report();
}

}  // namespace hbguard
