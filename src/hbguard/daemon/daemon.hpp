// hbguardd — the guard as a long-running process.
//
// A single-threaded poll(2) event loop owns two Unix-domain listening
// sockets:
//
//   <dir>/ingest.sock   taps connect and stream IoRecords as JSON Lines
//                       (the write_trace() schema, one record per line)
//   <dir>/control.sock  operators (hbgctl live) speak a line-oriented RPC
//
// Ownership rule (see DESIGN.md): the event loop thread owns every mutable
// structure — connections, inboxes, counters, the WAL and the
// ReplayGuardSession (capture hub, guard, graph) — and runs every delivery
// and every scan itself, so the session never changes threads. A
// one-worker ThreadPool is the parse lane: the loop frames each read's
// complete ingest lines into one block, the worker parses the block into a
// batch of IoRecords and hands it back through a mutex-guarded completion
// queue plus the self-pipe, and the loop moves landed batches into the
// connection's inbox. The worker touches only its block and its batch, so
// parsing the next read overlaps delivering and scanning the last one.
// After each scan the loop returns to poll(), so accepts, control lines and
// socket reads are serviced at every scan boundary.
//
// Backpressure, per ingest connection (counting inbox records plus lines
// still in the parse lane):
//   - buffered >= soft limit: stop reading the socket (POLLIN off).
//     Lossless — the kernel buffer fills and the sender blocks. Reading
//     resumes once buffered drains to half the soft limit.
//   - a single read() burst can still overshoot; records landing past the
//     hard cap (2x soft inbox) are dropped and counted. Dropped records
//     leave router_seq gaps, which the session's StreamHealthTracker
//     accounts as telemetry degradation (the guard degrades scans rather
//     than trusting a stream with holes).
//
// Line framing: a line longer than the daemon's 1 MiB cap is discarded
// through its newline — counted in records_rejected on ingest, answered
// with `err line too long` on control — and an ingest stream that ends
// mid-line counts its unterminated tail as rejected too.
//
// Control lines on one connection answer in line order, one reply each.
// `digest` and `finish` wait for ingest to quiesce; while one waits, a
// `resume` queued behind it (and before any `pause`) runs at once, so
// paused delivery cannot wedge the connection, and its reply waits its
// turn.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "hbguard/capture/wal.hpp"
#include "hbguard/daemon/replay_session.hpp"
#include "hbguard/util/thread_pool.hpp"

namespace hbguard {

struct DaemonOptions {
  /// Directory the sockets live in (created if missing).
  std::string socket_dir = "/tmp/hbguardd";
  ReplaySessionOptions session;
  /// Ingest records buffered per connection before its socket stops being
  /// read (see backpressure above).
  std::size_t inbox_soft_limit = 4096;

  // ---- Durability (see capture/wal.hpp, daemon/recovery.hpp) ----

  /// Directory for the WAL and checkpoints. Empty = durability off (the
  /// pre-WAL in-memory daemon, byte-identical behaviour).
  std::string state_dir;
  /// On startup, rebuild the session from an existing WAL/checkpoint in
  /// state_dir. false wipes any durable state there (loudly) and starts
  /// fresh.
  bool recover = true;
  /// WAL entries between group fdatasyncs (0 = fsync off, flush-only).
  std::size_t fsync_interval = 256;
  /// Take a checkpoint (and rotate the WAL) every this many WAL entries;
  /// 0 = only at shutdown and on request_checkpoint()/`checkpoint` RPC.
  std::size_t checkpoint_every = 20'000;
};

class GuardDaemon {
 public:
  explicit GuardDaemon(DaemonOptions options);
  ~GuardDaemon();
  GuardDaemon(const GuardDaemon&) = delete;
  GuardDaemon& operator=(const GuardDaemon&) = delete;

  /// Bind the sockets. Returns false (with a logged error) on failure.
  /// Separate from run() so a launcher can confirm the sockets exist before
  /// pointing clients at them.
  bool bind();

  std::string ingest_socket_path() const;
  std::string control_socket_path() const;

  /// Run the event loop until a `shutdown` RPC (or stop()). Returns 0 on a
  /// clean shutdown. Calls bind() if it has not run yet.
  int run();

  /// Ask the loop to exit (thread-safe; used by signal handlers and tests).
  /// With a state_dir configured, the loop takes a final checkpoint and
  /// syncs the WAL on its way out — SIGTERM/SIGINT lose nothing.
  void stop();

  /// Ask the loop for an immediate checkpoint + WAL rotation (thread-safe;
  /// the SIGHUP handler). No-op without a state_dir.
  void request_checkpoint();

  /// Loop-thread-only introspection (tests drive these between run() exits).
  const ReplayGuardSession& session() const { return *session_; }
  std::uint64_t records_dropped() const { return dropped_; }
  bool recovered() const { return recovered_; }

 private:
  /// One queued RPC line, and its reply once it has run ahead of its turn.
  struct ControlLine {
    std::string text;
    std::optional<std::string> reply;
  };

  struct Connection {
    int fd = -1;
    bool control = false;
    bool paused = false;        // POLLIN off (ingest backpressure)
    bool closed = false;        // EOF seen; drain inbox, then destroy
    std::string partial;        // trailing unterminated line from last read
    std::size_t scanned = 0;    // bytes of `partial` already searched for '\n'
    bool discarding = false;    // inside an oversize line: drop through its '\n'
    std::deque<IoRecord> inbox;     // parsed, undelivered records (ingest)
    std::size_t in_lane = 0;        // lines submitted to the parse lane, not landed
    std::deque<ControlLine> lines;  // queued RPC lines (control)
    std::uint64_t dropped = 0;      // records past the hard cap
  };

  /// One read's ingest lines after the parse lane: built by the worker,
  /// moved into `conn`'s inbox by the loop.
  struct ParsedBatch {
    Connection* conn = nullptr;  // outlives the batch: teardown waits on in_lane
    std::size_t lines = 0;       // lines the block held; leave the lane on landing
    std::vector<IoRecord> records;
    std::uint64_t rejected = 0;  // lines that failed to parse
  };

  bool setup_socket(int& fd, const std::string& path);
  void accept_ready(int listen_fd, bool control);
  void read_connection(Connection& conn);
  void reject_oversize_line(Connection& conn);
  void submit_block(Connection& conn, std::string block, std::size_t lines);
  void land_batches();            // move parsed batches into their inboxes
  void maybe_resume(Connection& conn);  // lift backpressure at half the soft limit
  bool init_durability();         // recovery + WAL open (bind() runs it first)
  void deliver_record(IoRecord record);        // WAL append + deliver
  bool take_checkpoint(std::string& message);  // sync, write, rotate, GC
  void maybe_checkpoint();        // cadence / requested checkpoint
  bool drain();                   // the canonical deliver/scan loop; true after a scan
  bool inboxes_empty() const;     // no undelivered record, none in the lane
  bool ingest_quiescent() const;  // inboxes empty, no due scan pending
  bool process_control(Connection& conn);
  bool execute_command(Connection& conn, const std::string& line, std::string& response);
  std::string status_json() const;
  void reply(Connection& conn, const std::string& body);

  DaemonOptions options_;
  std::unique_ptr<ReplayGuardSession> session_;
  std::mutex landed_mutex_;           // guards landed_ (the lane pushes, the loop takes)
  std::vector<ParsedBatch> landed_;
  std::unique_ptr<ThreadPool> pool_;  // exactly one worker: the parse lane

  int ingest_listen_ = -1;
  int control_listen_ = -1;
  int wake_read_ = -1;   // self-pipe: landed batches + stop()/checkpoint wakeups
  int wake_write_ = -1;
  bool bound_ = false;
  bool running_ = false;
  bool delivery_paused_ = false;  // `pause` RPC: hold records in inboxes
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> checkpoint_requested_{false};
  std::uint64_t dropped_ = 0;
  std::uint64_t rejected_ = 0;  // ingest lines that failed to parse
  std::vector<std::unique_ptr<Connection>> connections_;

  // Durability (all loop-thread-owned; null/zero when state_dir is empty).
  std::unique_ptr<GuardWal> wal_;
  std::string fingerprint_;
  std::uint64_t last_checkpoint_lsn_ = 0;
  std::uint64_t next_checkpoint_generation_ = 1;
  std::uint64_t checkpoints_taken_ = 0;
  bool recovered_ = false;
  std::uint64_t recovered_entries_ = 0;
  double recovery_seconds_ = 0.0;
};

}  // namespace hbguard
