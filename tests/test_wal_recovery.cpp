// Durability tests: WAL round-trip and torn-tail repair, checkpoint
// validity/fallback, guard-state serialization, and crash-recovery digest
// parity. The invariant under test everywhere: recovery (checkpoint + WAL
// suffix replay) reconstructs a session whose GuardReport::digest() is
// byte-identical to the canonical synchronous pass over the same records
// and control actions (ReplayGuardSession::run_offline /
// run_offline_with_controls). The process-kill variant of these checks
// lives in bench/bench_crash_recovery.cpp; here the "crash" is a WAL cut
// at an arbitrary byte, which covers strictly more tail shapes.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fixtures.hpp"
#include "hbguard/capture/trace_io.hpp"
#include "hbguard/capture/wal.hpp"
#include "hbguard/core/guard_state.hpp"
#include "hbguard/daemon/daemon.hpp"
#include "hbguard/daemon/recovery.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/snapshot/checkpoint.hpp"
#include "hbguard/util/io.hpp"

namespace hbguard {
namespace {

// ---- Scratch directories --------------------------------------------------

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name) {
    path = "/tmp/hbgwal-test-" + std::to_string(::getpid()) + "-" + name;
    wipe();
    ::mkdir(path.c_str(), 0700);
  }
  ~TempDir() { wipe(); }
  void wipe() {
    DIR* dir = ::opendir(path.c_str());
    if (dir != nullptr) {
      while (dirent* entry = ::readdir(dir)) {
        std::string file = entry->d_name;
        if (file == "." || file == "..") continue;
        ::unlink((path + "/" + file).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path.c_str());
  }
};

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::string error;
  EXPECT_TRUE(io::read_file(path, bytes, &error)) << error;
  return bytes;
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---- Fixture trace --------------------------------------------------------

struct Fig2Trace {
  std::vector<IoRecord> records;
  PolicyList policies;
};

Fig2Trace make_fig2_trace() {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  return {scenario.network->capture().records(), paper_policies(scenario)};
}

ReplaySessionOptions make_session_options(const Fig2Trace& trace) {
  ReplaySessionOptions options;
  options.policies = trace.policies;
  options.scan_every_us = 5'000;  // several cadence boundaries per trace
  options.guard.repair = RepairMode::kProposeOnly;
  return options;
}

/// Append `records` (and `controls` at their positions) to a fresh WAL in
/// `dir`, exactly as the daemon would have: records in delivery order,
/// controls sealed at their execution point, everything synced.
void build_wal(const std::string& dir, const std::vector<IoRecord>& records,
               const std::vector<std::pair<std::size_t, std::string>>& controls,
               const ReplaySessionOptions& options, std::size_t records_per_frame = 8) {
  GuardWal wal;
  WalOptions wal_options;
  wal_options.fsync_interval = 0;  // tests care about bytes, not barriers
  wal_options.records_per_frame = records_per_frame;
  std::string error;
  ASSERT_TRUE(wal.open(dir, 1, 0, session_fingerprint(options), wal_options, &error))
      << error;
  std::size_t next_control = 0;
  for (std::size_t i = 0; i <= records.size(); ++i) {
    while (next_control < controls.size() && controls[next_control].first == i) {
      wal.append_control(controls[next_control].second);
      ++next_control;
    }
    if (i < records.size()) wal.append_record(records[i]);
  }
  ASSERT_TRUE(wal.sync());
}

/// Drive the canonical deliver/scan loop over records[from..to) against a
/// live (possibly just-recovered) session.
void feed_canonical(ReplayGuardSession& session, const std::vector<IoRecord>& records,
                    std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    while (session.scan_due_before(records[i])) session.run_one_due_scan();
    session.deliver(records[i]);
    while (session.scan_due_now()) session.run_one_due_scan();
  }
}

/// The guard state + WAL position a daemon checkpoint at `lsn` (== record
/// count here) would have captured: run the canonical loop over the prefix
/// and export.
std::vector<std::uint8_t> checkpoint_payload_at(const std::vector<IoRecord>& records,
                                                const ReplaySessionOptions& options,
                                                std::size_t lsn) {
  ReplayGuardSession session(options);
  feed_canonical(session, records, 0, lsn);
  std::vector<std::uint8_t> payload;
  encode_guard_state(session.guard().export_state(), payload);
  return payload;
}

// ---- WAL ------------------------------------------------------------------

TEST(Wal, RoundTripRecordsAndControlsInExecutionOrder) {
  Fig2Trace trace = make_fig2_trace();
  ASSERT_GT(trace.records.size(), 20u);
  ReplaySessionOptions options = make_session_options(trace);
  TempDir dir("roundtrip");

  std::vector<std::pair<std::size_t, std::string>> controls = {
      {5, "scan"}, {10, "mode report"}, {trace.records.size(), "finish"}};
  build_wal(dir.path, trace.records, controls, options);

  std::vector<IoRecord> records;
  std::vector<std::pair<std::uint64_t, std::string>> seen_controls;
  std::uint64_t last_lsn = 0;
  WalScanStats stats;
  std::string error;
  ASSERT_TRUE(scan_wal(
      dir.path,
      [&](const IoRecord& r, std::uint64_t lsn) {
        records.push_back(r);
        last_lsn = lsn;
      },
      [&](const std::string& line, std::uint64_t lsn) {
        seen_controls.emplace_back(lsn, line);
      },
      stats, /*repair=*/false, &error))
      << error;

  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.warnings, 0u);
  EXPECT_EQ(stats.records, trace.records.size());
  EXPECT_EQ(stats.controls, controls.size());
  EXPECT_EQ(stats.entries, trace.records.size() + controls.size());
  EXPECT_EQ(stats.fingerprint, session_fingerprint(options));
  ASSERT_EQ(records.size(), trace.records.size());
  // Byte-identical record round-trip through the archive codec.
  std::ostringstream a;
  std::ostringstream b;
  write_trace(a, trace.records);
  write_trace(b, records);
  EXPECT_EQ(a.str(), b.str());
  // Controls interleave at their logged LSNs: entry 5 and (after it) 11.
  ASSERT_EQ(seen_controls.size(), 3u);
  EXPECT_EQ(seen_controls[0], (std::pair<std::uint64_t, std::string>{5, "scan"}));
  EXPECT_EQ(seen_controls[1], (std::pair<std::uint64_t, std::string>{11, "mode report"}));
  EXPECT_EQ(seen_controls[2].second, "finish");
  EXPECT_EQ(seen_controls[2].first, stats.entries - 1);
  EXPECT_EQ(last_lsn, stats.entries - 2);  // last record precedes "finish"
}

TEST(Wal, TornTailEveryCutRecoversACleanPrefixAndStaysAppendable) {
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  // A small WAL (few records per frame) keeps the every-byte sweep cheap
  // while still crossing several frame boundaries.
  std::vector<IoRecord> records(trace.records.begin(), trace.records.begin() + 24);
  TempDir master("torn-master");
  build_wal(master.path, records, {{12, "scan"}}, options, /*records_per_frame=*/4);
  std::vector<std::uint8_t> intact =
      read_bytes(GuardWal::segment_path(master.path, 1));
  ASSERT_GT(intact.size(), 64u);

  WalScanStats full_stats;
  std::string error;
  ASSERT_TRUE(scan_wal(master.path, nullptr, nullptr, full_stats, false, &error));
  ASSERT_EQ(full_stats.entries, 25u);

  // The clean prefixes of the file: empty (a benign just-created segment)
  // and every whole-frame boundary. A cut anywhere else is a torn tail and
  // must be flagged.
  std::set<std::size_t> clean_cuts = {0};
  {
    std::size_t offset = sizeof(kWalMagic);
    while (offset < intact.size()) {
      std::uint32_t len = static_cast<std::uint32_t>(intact[offset]) |
                          static_cast<std::uint32_t>(intact[offset + 1]) << 8 |
                          static_cast<std::uint32_t>(intact[offset + 2]) << 16 |
                          static_cast<std::uint32_t>(intact[offset + 3]) << 24;
      offset += 4 + len;
      clean_cuts.insert(offset);
    }
    ASSERT_GT(clean_cuts.size(), 4u);  // several frames to land between
  }

  TempDir dir("torn-cut");
  std::uint64_t prev_entries = 0;
  for (std::size_t cut = 0; cut <= intact.size(); ++cut) {
    std::vector<std::uint8_t> torn(intact.begin(), intact.begin() + cut);
    write_bytes(GuardWal::segment_path(dir.path, 1), torn);

    WalScanStats stats;
    ASSERT_TRUE(scan_wal(dir.path, nullptr, nullptr, stats, /*repair=*/true, &error))
        << "cut=" << cut << ": " << error;
    // Entries recovered grow monotonically with the cut and never exceed
    // the intact log; a cut inside a frame must surface a warning, a cut on
    // a frame boundary is a clean prefix and must not.
    EXPECT_LE(stats.entries, full_stats.entries) << "cut=" << cut;
    EXPECT_GE(stats.entries, prev_entries) << "cut=" << cut;
    prev_entries = std::max(prev_entries, stats.entries);
    if (clean_cuts.count(cut) != 0) {
      EXPECT_EQ(stats.warnings, 0u) << "cut=" << cut;
    } else {
      EXPECT_GE(stats.warnings, 1u) << "cut=" << cut;
    }

    // Repair truncated to a clean prefix: a re-scan decodes the same
    // entries warning-free, and the repaired segment accepts appends.
    WalScanStats again;
    ASSERT_TRUE(scan_wal(dir.path, nullptr, nullptr, again, false, &error));
    EXPECT_EQ(again.warnings, 0u) << "cut=" << cut;
    EXPECT_EQ(again.entries, stats.entries) << "cut=" << cut;

    if (cut == intact.size() / 2) {  // spot-check appendability once
      GuardWal wal;
      WalOptions wal_options;
      wal_options.fsync_interval = 0;
      ASSERT_TRUE(wal.open(dir.path, stats.segments > 0 ? stats.last_generation : 1,
                           stats.entries, session_fingerprint(options), wal_options,
                           &error))
          << error;
      wal.append_record(records[0]);
      ASSERT_TRUE(wal.sync());
      WalScanStats appended;
      ASSERT_TRUE(scan_wal(dir.path, nullptr, nullptr, appended, false, &error));
      EXPECT_EQ(appended.entries, stats.entries + 1);
      EXPECT_EQ(appended.warnings, 0u);
    }
  }
  EXPECT_EQ(prev_entries, full_stats.entries);  // the full cut decodes all
}

TEST(Wal, ByteFlipStopsReplayAtLastValidFrame) {
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  std::vector<IoRecord> records(trace.records.begin(), trace.records.begin() + 16);
  TempDir dir("byteflip");
  build_wal(dir.path, records, {}, options, /*records_per_frame=*/4);

  // Walk the frame chain (magic, then u32-length-prefixed frames) to the
  // third frame — header + one records frame stay intact — and blow up its
  // length prefix. Whatever bit a real corruption flips, the scan contract
  // is the same: stop at the last frame that decodes, count a warning.
  std::string path = GuardWal::segment_path(dir.path, 1);
  std::vector<std::uint8_t> bytes = read_bytes(path);
  std::size_t offset = sizeof(kWalMagic);
  for (int frame = 0; frame < 2; ++frame) {
    std::uint32_t len = static_cast<std::uint32_t>(bytes[offset]) |
                        static_cast<std::uint32_t>(bytes[offset + 1]) << 8 |
                        static_cast<std::uint32_t>(bytes[offset + 2]) << 16 |
                        static_cast<std::uint32_t>(bytes[offset + 3]) << 24;
    offset += 4 + len;
  }
  ASSERT_LT(offset + 4, bytes.size());
  bytes[offset + 3] = 0xFF;  // frame now claims ~4 GiB: unsatisfiable
  write_bytes(path, bytes);

  WalScanStats stats;
  std::string error;
  std::uint64_t decoded = 0;
  ASSERT_TRUE(scan_wal(
      dir.path, [&](const IoRecord&, std::uint64_t) { ++decoded; }, nullptr, stats,
      /*repair=*/true, &error))
      << error;
  EXPECT_EQ(stats.entries, 4u);  // exactly the first records frame
  EXPECT_EQ(decoded, 4u);
  EXPECT_GE(stats.warnings, 1u);
  EXPECT_GT(stats.torn_bytes, 0u);

  // Replay after repair is a clean 4-record prefix — nothing past the flip
  // leaks into the session.
  RecoveryResult recovery = recover_session(dir.path, options);
  ASSERT_TRUE(recovery.ok) << recovery.error;
  EXPECT_EQ(recovery.session->records_delivered(), 4u);
}

// ---- Guard state & checkpoints --------------------------------------------

TEST(Checkpoint, GuardStateRoundTripsWithIncidentsAndProposals) {
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  ReplayGuardSession session(options);
  feed_canonical(session, trace.records, 0, trace.records.size());
  session.finish();

  GuardPersistentState state = session.guard().export_state();
  ASSERT_GE(state.report.incidents.size(), 1u);  // Fig. 2 violation captured
  ASSERT_GE(state.proposals.size(), 1u);         // kProposeOnly queued it

  std::vector<std::uint8_t> bytes;
  encode_guard_state(state, bytes);
  GuardPersistentState decoded;
  ASSERT_TRUE(decode_guard_state(bytes, decoded));
  std::vector<std::uint8_t> reencoded;
  encode_guard_state(decoded, reencoded);
  EXPECT_EQ(bytes, reencoded);  // field-wise equality, via the codec itself
  EXPECT_EQ(decoded.report.digest(), state.report.digest());
  EXPECT_EQ(decoded.proposals.size(), state.proposals.size());
  EXPECT_EQ(decoded.next_proposal_id, state.next_proposal_id);
  EXPECT_EQ(decoded.last_violation_signature, state.last_violation_signature);

  // Truncations must be rejected wholesale, never half-applied.
  for (std::size_t len : {bytes.size() - 1, bytes.size() / 2, std::size_t{0}}) {
    GuardPersistentState scratch;
    EXPECT_FALSE(decode_guard_state(
        std::span<const std::uint8_t>(bytes.data(), len), scratch))
        << "len=" << len;
  }
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  GuardPersistentState scratch;
  EXPECT_FALSE(decode_guard_state(padded, scratch));  // trailing bytes
}

TEST(Checkpoint, StaleGenerationWithLsnBeyondWalIsSkipped) {
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  TempDir dir("stale");
  build_wal(dir.path, trace.records, {}, options);

  // A checkpoint claiming more WAL than exists — the shape left behind when
  // an older session's state dir is reused after its WAL was truncated.
  Checkpoint stale;
  stale.generation = 7;
  stale.lsn = trace.records.size() + 100;
  stale.fingerprint = session_fingerprint(options);
  stale.payload = {1, 2, 3};  // never reaches the decoder
  std::string error;
  ASSERT_TRUE(write_checkpoint(dir.path, stale, &error)) << error;

  RecoveryResult recovery = recover_session(dir.path, options);
  ASSERT_TRUE(recovery.ok) << recovery.error;
  EXPECT_FALSE(recovery.used_checkpoint);
  EXPECT_GE(recovery.checkpoints_skipped, 1u);
  EXPECT_EQ(recovery.replayed_entries, trace.records.size());  // full replay
  recovery.session->finish();
  EXPECT_EQ(recovery.session->digest(),
            ReplayGuardSession::run_offline(trace.records, options).digest());
}

TEST(Checkpoint, CorruptNewestFallsBackToOlderGeneration) {
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  TempDir dir("fallback");
  build_wal(dir.path, trace.records, {}, options);

  std::size_t boundary = trace.records.size() / 2;
  Checkpoint good;
  good.generation = 1;
  good.lsn = boundary;
  good.fingerprint = session_fingerprint(options);
  good.payload = checkpoint_payload_at(trace.records, options, boundary);
  std::string error;
  ASSERT_TRUE(write_checkpoint(dir.path, good, &error)) << error;

  // Newer generation, flipped byte in the body: checksum rejects it.
  Checkpoint bad = good;
  bad.generation = 2;
  ASSERT_TRUE(write_checkpoint(dir.path, bad, &error)) << error;
  std::vector<std::uint8_t> bytes = read_bytes(checkpoint_path(dir.path, 2));
  bytes[bytes.size() / 2] ^= 0x40;
  write_bytes(checkpoint_path(dir.path, 2), bytes);

  RecoveryResult recovery = recover_session(dir.path, options);
  ASSERT_TRUE(recovery.ok) << recovery.error;
  EXPECT_TRUE(recovery.used_checkpoint);
  EXPECT_EQ(recovery.checkpoint_generation, 1u);
  EXPECT_EQ(recovery.checkpoints_skipped, 1u);
  EXPECT_EQ(recovery.fast_forwarded_entries, boundary);
  recovery.session->finish();
  EXPECT_EQ(recovery.session->digest(),
            ReplayGuardSession::run_offline(trace.records, options).digest());
}

TEST(Checkpoint, GcKeepsNewestAndDropsTmpOrphans) {
  TempDir dir("gc");
  std::string error;
  for (std::uint64_t gen : {1u, 2u, 3u, 4u}) {
    Checkpoint c;
    c.generation = gen;
    c.fingerprint = "f";
    ASSERT_TRUE(write_checkpoint(dir.path, c, &error)) << error;
  }
  write_bytes(checkpoint_path(dir.path, 9) + ".tmp", {1, 2, 3});  // crashed write
  gc_checkpoints(dir.path, 2);
  auto kept = list_checkpoints(dir.path);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].generation, 3u);
  EXPECT_EQ(kept[1].generation, 4u);
  EXPECT_NE(::access((checkpoint_path(dir.path, 9) + ".tmp").c_str(), F_OK), 0);
}

// ---- Recovery digest parity ----------------------------------------------

TEST(Recovery, FingerprintMismatchRefusesTheStateDir) {
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  TempDir dir("fingerprint");
  build_wal(dir.path, trace.records, {}, options);

  ReplaySessionOptions other = options;
  other.scan_every_us = 7'000;  // different cadence → different digest
  RecoveryResult recovery = recover_session(dir.path, other);
  EXPECT_FALSE(recovery.ok);
  EXPECT_NE(recovery.error.find("fingerprint"), std::string::npos) << recovery.error;
}

TEST(Recovery, DigestParityAtEveryCutPointWithAndWithoutCheckpoint) {
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  const std::size_t n = trace.records.size();
  std::string oracle = ReplayGuardSession::run_offline(trace.records, options).digest();

  // The crash cut K models: K records were WAL-durable when the process
  // died; the tail re-arrives after recovery (the harness re-feeds it).
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, n / 3, n / 2, n - 1, n}) {
    for (bool with_checkpoint : {false, true}) {
      SCOPED_TRACE("cut=" + std::to_string(cut) +
                   " checkpoint=" + std::to_string(with_checkpoint));
      TempDir dir("parity");
      std::vector<IoRecord> prefix(trace.records.begin(), trace.records.begin() + cut);
      build_wal(dir.path, prefix, {}, options);
      if (with_checkpoint && cut >= 2) {
        Checkpoint c;
        c.generation = 1;
        c.lsn = cut / 2;
        c.fingerprint = session_fingerprint(options);
        c.payload = checkpoint_payload_at(trace.records, options, cut / 2);
        std::string error;
        ASSERT_TRUE(write_checkpoint(dir.path, c, &error)) << error;
      }

      RecoveryResult recovery = recover_session(dir.path, options);
      ASSERT_TRUE(recovery.ok) << recovery.error;
      ASSERT_NE(recovery.session, nullptr);
      EXPECT_EQ(recovery.session->records_delivered(), cut);
      EXPECT_EQ(recovery.used_checkpoint, with_checkpoint && cut >= 2);

      feed_canonical(*recovery.session, trace.records, cut, n);
      recovery.session->finish();
      EXPECT_EQ(recovery.session->digest(), oracle);
    }
  }
}

/// Write generation 1 of a checkpoint at `lsn` holding `session`'s guard
/// state.
void write_session_checkpoint(const std::string& dir, const ReplaySessionOptions& options,
                              const ReplayGuardSession& session, std::uint64_t lsn) {
  Checkpoint c;
  c.generation = 1;
  c.lsn = lsn;
  c.fingerprint = session_fingerprint(options);
  encode_guard_state(session.guard().export_state(), c.payload);
  std::string error;
  ASSERT_TRUE(write_checkpoint(dir, c, &error)) << error;
}

/// Recover `dir`, feed records[from..), finish, and return the digest.
std::string recover_and_finish(const std::string& dir, const ReplaySessionOptions& options,
                               const std::vector<IoRecord>& records, std::size_t from) {
  RecoveryResult recovery = recover_session(dir, options);
  EXPECT_TRUE(recovery.ok) << recovery.error;
  if (!recovery.ok) return {};
  EXPECT_TRUE(recovery.used_checkpoint);
  feed_canonical(*recovery.session, records, from, records.size());
  recovery.session->finish();
  return recovery.session->digest();
}

TEST(Recovery, CheckpointHoldingTheScanDueBeforeItsNextRecordIsNotRescanned) {
  // hbguardd's drain pass runs the scan due before the inbox's next record
  // and returns to poll, so a checkpoint can land between that scan and the
  // record's delivery. Replay must not run the scan a second time, whether
  // the boundary falls mid-WAL or at its end.
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  const std::vector<IoRecord>& records = trace.records;
  const std::size_t n = records.size();
  std::string oracle = ReplayGuardSession::run_offline(records, options).digest();

  // The first record past the middle with a cadence scan due before it.
  ReplayGuardSession daemon(options);
  std::size_t lsn = 0;
  for (; lsn < n; ++lsn) {
    if (lsn >= n / 2 && daemon.scan_due_before(records[lsn])) break;
    feed_canonical(daemon, records, lsn, lsn + 1);
  }
  ASSERT_LT(lsn, n) << "no cadence scan due before any record past the middle";
  daemon.run_one_due_scan();  // the daemon's order: scan, then checkpoint

  for (bool at_wal_end : {false, true}) {
    SCOPED_TRACE(at_wal_end ? "at the WAL's end" : "mid-WAL");
    TempDir dir("scan-before-record");
    std::size_t logged = at_wal_end ? lsn : n;
    build_wal(dir.path, std::vector<IoRecord>(records.begin(), records.begin() + logged), {},
              options);
    write_session_checkpoint(dir.path, options, daemon, lsn);
    EXPECT_EQ(recover_and_finish(dir.path, options, records, logged), oracle);
  }
}

TEST(Recovery, CheckpointBeforeADeltaThresholdScanRunsItAfterRecovery) {
  // A control line (checkpoint, pause, shutdown) can end the daemon's drain
  // pass after a delivery reached the delta threshold but before the scan it
  // calls for. Fast-forwarding that scan would lose it: the replay must run
  // it for real after the import.
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  options.scan_every_us = 0;
  options.scan_delta_threshold = 7;
  const std::vector<IoRecord>& records = trace.records;
  const std::size_t n = records.size();
  std::string oracle = ReplayGuardSession::run_offline(records, options).digest();

  // The first delivery past the middle that reaches the threshold; the
  // daemon checkpoints before its scan.
  ReplayGuardSession daemon(options);
  std::size_t lsn = 0;
  while (lsn < n) {
    daemon.deliver(records[lsn++]);
    if (lsn > n / 2 && daemon.scan_due_now()) break;
    while (daemon.scan_due_now()) daemon.run_one_due_scan();
  }
  ASSERT_TRUE(daemon.scan_due_now()) << "no delta scan due past the middle";

  for (bool at_wal_end : {false, true}) {
    SCOPED_TRACE(at_wal_end ? "at the WAL's end" : "mid-WAL");
    TempDir dir("delta-scan-after-record");
    std::size_t logged = at_wal_end ? lsn : n;
    build_wal(dir.path, std::vector<IoRecord>(records.begin(), records.begin() + logged), {},
              options);
    write_session_checkpoint(dir.path, options, daemon, lsn);
    EXPECT_EQ(recover_and_finish(dir.path, options, records, logged), oracle);
  }
}

TEST(Recovery, LoggedControlsReplayToTheControlOracle) {
  Fig2Trace trace = make_fig2_trace();
  ReplaySessionOptions options = make_session_options(trace);
  const std::size_t n = trace.records.size();
  // An operator scan mid-stream and a decline of the Fig. 2 proposal at the
  // end — both change the digest-relevant state, both ride the WAL.
  std::vector<std::pair<std::size_t, std::string>> controls = {
      {n / 2, "scan"}, {n, "repairs decline 1"}};
  GuardReport oracle = run_offline_with_controls(trace.records, options, controls);
  ASSERT_GE(oracle.scans, 2u);

  TempDir dir("controls");
  build_wal(dir.path, trace.records, controls, options);
  RecoveryResult recovery = recover_session(dir.path, options);
  ASSERT_TRUE(recovery.ok) << recovery.error;
  EXPECT_EQ(recovery.wal.controls, controls.size());
  recovery.session->finish();
  EXPECT_EQ(recovery.session->digest(), oracle.digest());
  // The declined proposal survived recovery as declined, not pending.
  ASSERT_GE(recovery.session->guard().proposals().size(), 1u);
  EXPECT_EQ(recovery.session->guard().proposals()[0].status,
            RepairProposal::Status::kDeclined);
}

// ---- Daemon restart continuity -------------------------------------------

int connect_unix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::string rpc(int fd, const std::string& command) {
  if (!send_all(fd, command + "\n")) return {};
  std::string buffer;
  std::string body;
  char chunk[4096];
  for (;;) {
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line == ".") return body;
      if (!line.empty() && line[0] == '.') line.erase(0, 1);
      body += line;
      body += '\n';
    }
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return body;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string chomp(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

TEST(Recovery, DaemonRestartContinuesTheStreamWithDigestParity) {
  Fig2Trace trace = make_fig2_trace();
  ASSERT_GT(trace.records.size(), 20u);
  TempDir state("daemon-state");
  TempDir sockets("daemon-sock");

  DaemonOptions options;
  options.socket_dir = sockets.path;
  options.state_dir = state.path;
  options.fsync_interval = 4;
  options.checkpoint_every = 0;  // exercised by the shutdown checkpoint
  options.session.policies = trace.policies;
  options.session.scan_every_us = 5'000;
  options.session.guard.repair = RepairMode::kProposeOnly;

  std::string offline =
      ReplayGuardSession::run_offline(trace.records, options.session).digest();
  std::size_t half = trace.records.size() / 2;

  auto stream = [&](const std::vector<IoRecord>& records) {
    std::ostringstream out;
    write_trace(out, records);
    return out.str();
  };

  // First life: half the trace, then a clean shutdown (final checkpoint).
  {
    GuardDaemon daemon(options);
    ASSERT_TRUE(daemon.bind());
    EXPECT_FALSE(daemon.recovered());  // nothing durable yet
    std::thread server([&daemon] { daemon.run(); });
    int ingest = connect_unix(daemon.ingest_socket_path());
    ASSERT_GE(ingest, 0);
    ASSERT_TRUE(send_all(ingest, stream({trace.records.begin(),
                                         trace.records.begin() + half})));
    ::close(ingest);
    int control = connect_unix(daemon.control_socket_path());
    ASSERT_GE(control, 0);
    // Drain barrier without `digest` (that would log a mid-stream "finish"
    // into the WAL, which the offline oracle does not have): poll status
    // until the half-stream has been delivered — and thus WALed.
    std::string status;
    for (int i = 0; i < 2000; ++i) {
      status = rpc(control, "status");
      std::string needle = "\"records_delivered\":";
      std::size_t pos = status.find(needle);
      if (pos != std::string::npos &&
          std::strtoull(status.c_str() + pos + needle.size(), nullptr, 10) == half) {
        break;
      }
      ::usleep(2'000);
    }
    EXPECT_NE(status.find("\"durable\":true"), std::string::npos) << status;
    EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
    ::close(control);
    server.join();
  }
  ASSERT_GE(list_checkpoints(state.path).size(), 1u);  // shutdown checkpoint

  // Second life: recover, stream the tail, digest must equal one unbroken
  // offline pass over the whole trace.
  {
    GuardDaemon daemon(options);
    ASSERT_TRUE(daemon.bind());
    EXPECT_TRUE(daemon.recovered());
    std::thread server([&daemon] { daemon.run(); });
    int control = connect_unix(daemon.control_socket_path());
    ASSERT_GE(control, 0);
    std::string status = rpc(control, "status");
    EXPECT_NE(status.find("\"recovered\":true"), std::string::npos) << status;

    int ingest = connect_unix(daemon.ingest_socket_path());
    ASSERT_GE(ingest, 0);
    ASSERT_TRUE(send_all(ingest, stream({trace.records.begin() + half,
                                         trace.records.end()})));
    ::close(ingest);

    std::string digest = rpc(control, "digest");
    EXPECT_EQ(chomp(digest), chomp(offline));
    EXPECT_EQ(rpc(control, "checkpoint").rfind("ok", 0), 0u);  // RPC surface
    EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
    ::close(control);
    server.join();
    EXPECT_EQ(daemon.session().records_delivered(), trace.records.size());
  }
}

// ---- util/io helpers ------------------------------------------------------

TEST(IoHelpers, WriteFileAtomicRoundTripsAndReplaces) {
  TempDir dir("io");
  std::string path = dir.path + "/blob";
  std::vector<std::uint8_t> first = {1, 2, 3, 4};
  std::vector<std::uint8_t> second(10'000, 0xAB);
  std::string error;
  ASSERT_TRUE(io::write_file_atomic(path, first, &error)) << error;
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(io::read_file(path, out, &error)) << error;
  EXPECT_EQ(out, first);
  ASSERT_TRUE(io::write_file_atomic(path, second, &error)) << error;
  ASSERT_TRUE(io::read_file(path, out, &error)) << error;
  EXPECT_EQ(out, second);
}

TEST(IoHelpers, WriteFullAndReadRetryCrossAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string payload(100'000, 'x');  // larger than the pipe buffer
  std::thread writer([&] {
    EXPECT_TRUE(io::write_full(fds[1], payload.data(), payload.size()));
    ::close(fds[1]);
  });
  std::string got;
  char chunk[4096];
  for (;;) {
    ssize_t n = io::read_retry(fds[0], chunk, sizeof(chunk));
    ASSERT_GE(n, 0);
    if (n == 0) break;
    got.append(chunk, static_cast<std::size_t>(n));
  }
  writer.join();
  ::close(fds[0]);
  EXPECT_EQ(got, payload);
}

}  // namespace
}  // namespace hbguard
