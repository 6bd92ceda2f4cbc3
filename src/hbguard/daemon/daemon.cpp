#include "hbguard/daemon/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <string_view>

#include "hbguard/capture/trace_io.hpp"
#include "hbguard/core/guard_state.hpp"
#include "hbguard/daemon/recovery.hpp"
#include "hbguard/provenance/root_cause.hpp"
#include "hbguard/snapshot/checkpoint.hpp"
#include "hbguard/util/io.hpp"
#include "hbguard/util/logging.hpp"
#include "hbguard/util/strings.hpp"

namespace hbguard {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

/// Longest line, ingest record or control command, the daemon buffers: far
/// above any record hbguard writes. A longer line is discarded through its
/// newline and rejected, so a peer that never sends one cannot grow a
/// connection's buffer without bound.
constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Queued in a control connection's lines in place of an oversize command;
/// no line read off the socket can equal it (lines are split at '\n').
const std::string kOversizeControlLine = "\n";

/// Checkpoint generations kept by the post-checkpoint GC.
constexpr std::size_t kCheckpointsKept = 2;

bool set_nonblocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

GuardDaemon::GuardDaemon(DaemonOptions options) : options_(std::move(options)) {
  session_ = std::make_unique<ReplayGuardSession>(options_.session);
  pool_ = std::make_unique<ThreadPool>(1);
}

GuardDaemon::~GuardDaemon() {
  pool_.reset();  // joins the parse lane before the connections die
  for (auto& conn : connections_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  for (int fd : {ingest_listen_, control_listen_, wake_read_, wake_write_}) {
    if (fd >= 0) ::close(fd);
  }
  if (bound_) {
    ::unlink(ingest_socket_path().c_str());
    ::unlink(control_socket_path().c_str());
  }
}

std::string GuardDaemon::ingest_socket_path() const {
  return options_.socket_dir + "/ingest.sock";
}

std::string GuardDaemon::control_socket_path() const {
  return options_.socket_dir + "/control.sock";
}

bool GuardDaemon::setup_socket(int& fd, const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    HBG_ERROR << "hbguardd: socket path too long: " << path;
    return false;
  }
  fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    HBG_ERROR << "hbguardd: socket(): " << std::strerror(errno);
    return false;
  }
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0 || !set_nonblocking(fd)) {
    HBG_ERROR << "hbguardd: cannot listen on " << path << ": " << std::strerror(errno);
    return false;
  }
  return true;
}

bool GuardDaemon::init_durability() {
  if (options_.state_dir.empty()) return true;
  const std::string& dir = options_.state_dir;
  ::mkdir(dir.c_str(), 0700);  // EEXIST is fine
  fingerprint_ = session_fingerprint(options_.session);

  if (!options_.recover) {
    std::vector<WalSegmentInfo> segments = list_wal_segments(dir);
    std::vector<CheckpointFileInfo> checkpoints = list_checkpoints(dir);
    if (!segments.empty() || !checkpoints.empty()) {
      HBG_WARN << "hbguardd: --no-recover: discarding " << segments.size()
               << " WAL segment(s) and " << checkpoints.size() << " checkpoint(s) in "
               << dir;
      for (const WalSegmentInfo& segment : segments) ::unlink(segment.path.c_str());
      gc_checkpoints(dir, 0);
    }
  } else if (!list_wal_segments(dir).empty()) {
    RecoveryResult recovery = recover_session(dir, options_.session);
    if (!recovery.ok) {
      HBG_ERROR << "hbguardd: recovery from " << dir << " failed: " << recovery.error
                << " (use --no-recover to discard the durable state)";
      return false;
    }
    session_ = std::move(recovery.session);
    recovered_ = true;
    recovered_entries_ = recovery.wal.entries;
    recovery_seconds_ = recovery.seconds;
    last_checkpoint_lsn_ = recovery.checkpoint_lsn;
    HBG_INFO << "hbguardd: recovered " << recovery.wal.entries << " WAL entr(ies) ("
             << recovery.fast_forwarded_entries << " fast-forwarded via checkpoint gen "
             << recovery.checkpoint_generation << ", " << recovery.replayed_entries
             << " replayed) in " << recovery.seconds << "s; " << recovery.wal.warnings
             << " warning(s), " << recovery.wal.torn_bytes << " torn byte(s) truncated";
  }

  std::vector<CheckpointFileInfo> checkpoints = list_checkpoints(dir);
  if (!checkpoints.empty()) {
    next_checkpoint_generation_ = checkpoints.back().generation + 1;
  }
  std::vector<WalSegmentInfo> segments = list_wal_segments(dir);
  std::uint64_t generation = segments.empty() ? 1 : segments.back().generation;
  WalOptions wal_options;
  wal_options.fsync_interval = options_.fsync_interval;
  wal_ = std::make_unique<GuardWal>();
  std::string error;
  if (!wal_->open(dir, generation, recovered_entries_, fingerprint_, wal_options,
                  &error)) {
    HBG_ERROR << "hbguardd: cannot open WAL in " << dir << ": " << error;
    wal_.reset();
    return false;
  }
  return true;
}

bool GuardDaemon::bind() {
  if (bound_) return true;
  // Durability first: recovery happens before the sockets exist, so a
  // client that connects was never racing a half-restored session (and a
  // launcher's connect latency measures recovery time).
  if (!init_durability()) return false;
  ::mkdir(options_.socket_dir.c_str(), 0700);  // EEXIST is fine
  if (!setup_socket(ingest_listen_, ingest_socket_path())) return false;
  if (!setup_socket(control_listen_, control_socket_path())) return false;
  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    HBG_ERROR << "hbguardd: pipe2(): " << std::strerror(errno);
    return false;
  }
  wake_read_ = pipefd[0];
  wake_write_ = pipefd[1];
  bound_ = true;
  return true;
}

void GuardDaemon::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_write_ >= 0) {
    char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
  }
}

void GuardDaemon::request_checkpoint() {
  checkpoint_requested_.store(true, std::memory_order_release);
  if (wake_write_ >= 0) {
    char byte = 'k';
    [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
  }
}

void GuardDaemon::accept_ready(int listen_fd, bool control) {
  for (;;) {
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; poll will retry
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->control = control;
    connections_.push_back(std::move(conn));
    // Read at once: bytes a peer sent before its next control line (a
    // stream it has already closed) must be buffered before that line runs.
    read_connection(*connections_.back());
  }
}

void GuardDaemon::read_connection(Connection& conn) {
  char buffer[kReadChunk];
  for (;;) {
    if (!conn.control && conn.inbox.size() + conn.in_lane >= options_.inbox_soft_limit) {
      // Soft limit: stop reading (lossless — the kernel buffer fills and
      // the sender blocks). Lines already in the lane still land, and only
      // overshoot past the hard cap is dropped.
      conn.paused = true;
      break;
    }
    ssize_t n = io::read_retry(conn.fd, buffer, sizeof(buffer));
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      conn.closed = true;
      if (!conn.control && !conn.discarding && !conn.partial.empty()) {
        // The stream ended mid-line: the record never arrived whole.
        ++rejected_;
        HBG_WARN_EVERY_N(64) << "hbguardd: ingest connection closed mid-line ("
                             << conn.partial.size() << " bytes unterminated)";
      }
      conn.partial.clear();
      break;
    }
    conn.partial.append(buffer, static_cast<std::size_t>(n));
    // This read's complete ingest lines, parsed as one block by the lane.
    std::string block;
    std::size_t block_lines = 0;
    if (!conn.control) block.reserve(conn.partial.size());
    // Bytes before `scanned` held no newline on earlier reads.
    std::size_t start = 0;
    std::size_t newline;
    while ((newline = conn.partial.find('\n', std::max(start, conn.scanned))) !=
           std::string::npos) {
      std::string_view line(conn.partial.data() + start, newline - start);
      start = newline + 1;
      if (conn.discarding) {
        conn.discarding = false;  // the oversize line's tail, rejected already
      } else if (line.size() > kMaxLineBytes) {
        reject_oversize_line(conn);
      } else if (line.empty()) {
        // A blank line carries nothing.
      } else if (conn.control) {
        conn.lines.push_back({std::string(line), std::nullopt});
      } else {
        block.append(line);
        block += '\n';
        ++block_lines;
      }
    }
    if (block_lines > 0) submit_block(conn, std::move(block), block_lines);
    conn.partial.erase(0, start);
    if (!conn.discarding && conn.partial.size() > kMaxLineBytes) {
      reject_oversize_line(conn);
      conn.discarding = true;
    }
    if (conn.discarding) conn.partial.clear();
    conn.scanned = conn.partial.size();
  }
}

void GuardDaemon::reject_oversize_line(Connection& conn) {
  if (conn.control) {
    conn.lines.push_back({kOversizeControlLine, std::nullopt});
    return;
  }
  ++rejected_;
  HBG_WARN_EVERY_N(64) << "hbguardd: ingest line over " << kMaxLineBytes
                       << " bytes rejected";
}

void GuardDaemon::submit_block(Connection& conn, std::string block, std::size_t lines) {
  conn.in_lane += lines;
  pool_->submit([this, target = &conn, lines, block = std::move(block)] {
    ParsedBatch batch;
    batch.conn = target;
    batch.lines = lines;
    try {
      batch.records.reserve(lines);
      std::string parse_error;
      for (std::size_t start = 0; start < block.size();) {
        std::size_t end = std::min(block.find('\n', start), block.size());
        std::string_view line(block.data() + start, end - start);
        start = end + 1;
        IoRecord record;
        TraceLineStatus status = parse_trace_line(line, record, parse_error);
        if (status == TraceLineStatus::kRecord) {
          batch.records.push_back(std::move(record));
        } else if (status == TraceLineStatus::kError) {
          ++batch.rejected;
          HBG_WARN_EVERY_N(64) << "hbguardd: ingest parse error: " << parse_error;
        }
      }
    } catch (...) {
      // The batch lands regardless: its lines must leave the lane, or the
      // connection could never drain.
      HBG_WARN << "hbguardd: ingest block of " << lines << " line(s) failed to parse";
      batch.records.clear();
      batch.rejected = lines;
    }
    {
      std::lock_guard<std::mutex> lock(landed_mutex_);
      landed_.push_back(std::move(batch));
    }
    char byte = 'p';
    [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
  });
}

void GuardDaemon::land_batches() {
  std::vector<ParsedBatch> landing;
  {
    std::lock_guard<std::mutex> lock(landed_mutex_);
    landing.swap(landed_);
  }
  // One worker, so batches land in submission order: FIFO per connection.
  for (ParsedBatch& batch : landing) {
    Connection& conn = *batch.conn;
    conn.in_lane -= batch.lines;
    rejected_ += batch.rejected;
    for (IoRecord& record : batch.records) {
      if (conn.inbox.size() >= options_.inbox_soft_limit * 2) {
        // Hard cap: a single read burst overshot the paused threshold.
        ++conn.dropped;
        ++dropped_;
        continue;
      }
      conn.inbox.push_back(std::move(record));
    }
    // Rejected lines shrink what is buffered without any delivery.
    maybe_resume(conn);
  }
}

void GuardDaemon::maybe_resume(Connection& conn) {
  if (!conn.paused || conn.inbox.size() + conn.in_lane > options_.inbox_soft_limit / 2) return;
  conn.paused = false;
  // Re-read immediately: bytes (or the EOF) that piled up in the kernel
  // buffer while paused must show as buffered before any quiescence check
  // this pass, or a deferred digest could run early.
  read_connection(conn);
}

bool GuardDaemon::inboxes_empty() const {
  for (const auto& conn : connections_) {
    if (!conn->control && (!conn->inbox.empty() || conn->in_lane > 0)) return false;
  }
  return true;
}

bool GuardDaemon::ingest_quiescent() const {
  // A paused connection may hold unread bytes (and an unread EOF) in the
  // kernel buffer — its empty inbox proves nothing until reads resume.
  for (const auto& conn : connections_) {
    if (!conn->control && conn->paused) return false;
  }
  return inboxes_empty() && !session_->scan_due_now();
}

void GuardDaemon::reply(Connection& conn, const std::string& body) {
  // Line-framed response, "." terminated; body lines equal to "." are
  // dot-stuffed (SMTP style) so any payload round-trips.
  std::string framed;
  std::size_t start = 0;
  while (start <= body.size()) {
    std::size_t newline = body.find('\n', start);
    std::string_view line(body.data() + start, (newline == std::string::npos ? body.size() : newline) - start);
    if (newline == std::string::npos && line.empty() && start > 0) break;
    if (line == ".") framed += '.';
    framed.append(line);
    framed += '\n';
    if (newline == std::string::npos) break;
    start = newline + 1;
  }
  framed += ".\n";
  // RPC replies are small relative to socket buffers, so the blocking
  // write only ever delays this connection.
  if (!io::write_full(conn.fd, framed.data(), framed.size())) conn.closed = true;
}

void GuardDaemon::deliver_record(IoRecord record) {
  if (wal_) wal_->append_record(record);
  session_->deliver(std::move(record));
  if (wal_) wal_->maybe_sync();
}

bool GuardDaemon::take_checkpoint(std::string& message) {
  if (!wal_) {
    message = "err durability is off (no --state-dir)";
    return false;
  }
  if (!wal_->sync()) {
    message = "err WAL sync failed";
    return false;
  }
  Checkpoint checkpoint;
  checkpoint.generation = next_checkpoint_generation_;
  checkpoint.lsn = wal_->lsn();
  checkpoint.fingerprint = fingerprint_;
  encode_guard_state(session_->guard().export_state(), checkpoint.payload);
  std::string error;
  if (!write_checkpoint(options_.state_dir, checkpoint, &error)) {
    message = "err checkpoint write failed: " + error;
    HBG_ERROR << "hbguardd: " << message;
    return false;
  }
  ++next_checkpoint_generation_;
  ++checkpoints_taken_;
  last_checkpoint_lsn_ = checkpoint.lsn;
  if (!wal_->rotate(wal_->generation() + 1, &error)) {
    // The checkpoint itself is committed; the next recovery just replays a
    // longer tail of the unrotated segment.
    HBG_WARN << "hbguardd: WAL rotation after checkpoint failed: " << error;
  }
  gc_checkpoints(options_.state_dir, kCheckpointsKept);
  message = "ok checkpoint gen " + std::to_string(checkpoint.generation) + " at lsn " +
            std::to_string(checkpoint.lsn);
  return true;
}

void GuardDaemon::maybe_checkpoint() {
  if (!wal_ || !running_) return;
  bool due = checkpoint_requested_.load(std::memory_order_acquire) ||
             (options_.checkpoint_every > 0 &&
              wal_->lsn() - last_checkpoint_lsn_ >= options_.checkpoint_every);
  if (!due) return;
  checkpoint_requested_.store(false, std::memory_order_release);
  std::string message;
  if (take_checkpoint(message)) {
    HBG_INFO << "hbguardd: " << message;
  }
}

std::string GuardDaemon::status_json() const {
  const GuardReport& report = session_->report();
  std::size_t pending = 0;
  for (const RepairProposal& p : session_->guard().proposals()) {
    if (p.status == RepairProposal::Status::kPending) ++pending;
  }
  std::size_t buffered = 0;
  std::size_t ingest_conns = 0;
  std::size_t control_conns = 0;
  for (const auto& conn : connections_) {
    if (conn->control) {
      ++control_conns;
    } else {
      ++ingest_conns;
      buffered += conn->inbox.size() + conn->in_lane;
    }
  }
  std::ostringstream out;
  out << "{\"records_delivered\":" << session_->records_delivered()
      << ",\"records_buffered\":" << buffered << ",\"records_dropped\":" << dropped_
      << ",\"records_rejected\":" << rejected_
      << ",\"watermark_us\":" << session_->watermark() << ",\"scans\":" << report.scans
      << ",\"clean_scans\":" << report.clean_scans << ",\"incidents\":" << report.incidents.size()
      << ",\"reverts\":" << report.reverts << ",\"proposals_pending\":" << pending
      << ",\"stream_gaps\":" << report.degrade.gaps
      << ",\"ingest_connections\":" << ingest_conns
      << ",\"control_connections\":" << control_conns
      << ",\"delivery_paused\":" << (delivery_paused_ ? "true" : "false")
      << ",\"finished\":" << (session_->finished() ? "true" : "false")
      << ",\"mode\":\"" << to_string(session_->guard().repair_mode()) << "\""
      << ",\"durable\":" << (wal_ ? "true" : "false");
  // Whether scans stay incremental: reused verdicts should dominate, while
  // full deltas and closure fallbacks re-verify everything.
  const IncrementalSnapshotter::Stats& snapshot_stats = session_->guard().snapshot_stats();
  out << ",\"verify_reused_policies\":" << session_->guard().verifier_stats().reused_policies
      << ",\"snapshot_full_deltas\":" << snapshot_stats.full_deltas
      << ",\"snapshot_closure_fallbacks\":" << snapshot_stats.closure_fallbacks;
  if (wal_) {
    out << ",\"wal_lsn\":" << wal_->lsn() << ",\"wal_synced_lsn\":" << wal_->synced_lsn()
        << ",\"wal_generation\":" << wal_->generation()
        << ",\"wal_syncs\":" << wal_->sync_calls()
        << ",\"checkpoints_taken\":" << checkpoints_taken_
        << ",\"recovered\":" << (recovered_ ? "true" : "false")
        << ",\"recovered_entries\":" << recovered_entries_;
  }
  if (session_->guard().traffic_scheduling()) {
    // Traffic-weighted scheduling telemetry: how much of the demand the
    // last scan covered, how much work is deferred, and the weighted
    // detection-latency histogram (scan gaps) behind the TTD SLA.
    const TrafficScheduler& sched = session_->guard().traffic_scheduler();
    const TrafficScheduleStats& ts = sched.stats();
    const DetectionLatencyHistogram& lat = sched.detection_latency();
    out << ",\"traffic_scheduling\":true"
        << ",\"traffic_planned_scans\":" << ts.planned_scans
        << ",\"traffic_covered_items\":" << ts.covered_items
        << ",\"traffic_deferred_items\":" << ts.deferred_items
        << ",\"traffic_aged_items\":" << ts.aged_items
        << ",\"traffic_last_deferred\":" << ts.last_deferred
        << ",\"traffic_last_coverage\":" << ts.last_coverage
        << ",\"traffic_ttd_samples\":" << lat.samples()
        << ",\"traffic_ttd_p50_scans\":" << lat.weighted_percentile(0.50)
        << ",\"traffic_ttd_p99_scans\":" << lat.weighted_percentile(0.99)
        << ",\"traffic_ttd_max_scans\":" << lat.max_gap();
  }
  out << "}";
  return out.str();
}

/// Returns false when the command must wait (quiescence-gated) — the line
/// stays queued and is retried on the next drain pass.
bool GuardDaemon::execute_command(Connection&, const std::string& line,
                                  std::string& response) {
  if (line == kOversizeControlLine) {
    response = "err line too long (limit " + std::to_string(kMaxLineBytes) + " bytes)";
    return true;
  }
  std::vector<std::string> words = split(trim(line), ' ');
  const std::string& cmd = words[0];

  if (cmd == "status") {
    response = status_json();
    return true;
  }
  if (cmd == "scan") {
    session_->request_scan();
    response = "ok scan scheduled at watermark " + std::to_string(session_->watermark());
    return true;
  }
  if (cmd == "pause") {
    delivery_paused_ = true;
    response = "ok delivery paused (records buffer in inboxes)";
    return true;
  }
  if (cmd == "resume") {
    delivery_paused_ = false;
    response = "ok delivery resumed";
    return true;
  }
  if (cmd == "why") {
    if (words.size() != 2) {
      response = "err usage: why <io-id>";
      return true;
    }
    std::optional<IoId> io = parse_unsigned(words[1]);
    if (!io) {
      response = "err bad id: " + words[1];
      return true;
    }
    // Borrow the live graph: a copy per call would stall ingest on the loop.
    std::optional<HappensBeforeGraph> rebuilt;
    const HappensBeforeGraph* live = session_->guard().live_hbg();
    if (live == nullptr) live = &rebuilt.emplace(session_->guard().current_hbg());
    const HappensBeforeGraph& hbg = *live;
    if (hbg.record(*io) == nullptr) {
      response = "err no record #" + words[1] + " in the capture";
      return true;
    }
    RootCauseAnalyzer analyzer;
    response = RootCauseAnalyzer::render(hbg, analyzer.analyze(hbg, *io));
    return true;
  }
  if (cmd == "repairs") {
    if (words.size() < 2) {
      response = "err usage: repairs list|approve <id>|decline <id>|revert <id>";
      return true;
    }
    Guard& guard = session_->guard();
    if (words[1] == "list") {
      std::ostringstream out;
      for (const RepairProposal& p : guard.proposals()) {
        out << "#" << p.id << " " << to_string(p.status) << " revert v" << p.cause_version
            << " on R" << p.router << " (" << p.description << ")\n";
      }
      response = out.str().empty() ? "no proposals" : out.str();
      return true;
    }
    if (words.size() != 3) {
      response = "err usage: repairs " + words[1] + " <id>";
      return true;
    }
    if (words[1] != "approve" && words[1] != "decline" && words[1] != "revert") {
      response = "err unknown repairs action: " + words[1];
      return true;
    }
    // Normalize, WAL, then execute via the same path recovery replays —
    // the logged line and the live action cannot drift apart.
    std::optional<std::uint64_t> id = parse_unsigned(words[2]);
    if (!id) {
      response = "err bad id: " + words[2];
      return true;
    }
    std::string canonical = "repairs " + words[1] + " " + std::to_string(*id);
    if (wal_) wal_->append_control(canonical);
    response = apply_logged_control(*session_, canonical);
    return true;
  }
  if (cmd == "mode") {
    if (words.size() != 2 ||
        (words[1] != "report" && words[1] != "propose" && words[1] != "propose-only")) {
      response = "err usage: mode report|propose";
      return true;
    }
    std::string canonical =
        "mode " + std::string(words[1] == "report" ? "report" : "propose");
    if (wal_) wal_->append_control(canonical);
    response = apply_logged_control(*session_, canonical);
    return true;
  }
  if (cmd == "checkpoint") {
    take_checkpoint(response);
    return true;
  }
  if (cmd == "finish" || cmd == "digest") {
    if (!ingest_quiescent()) return false;  // wait for the stream to drain
    if (wal_ && !session_->finished()) wal_->append_control("finish");
    session_->finish();
    response = cmd == "digest" ? session_->digest() : "ok finished (tail scan complete)";
    return true;
  }
  if (cmd == "shutdown") {
    running_ = false;
    response = "ok shutting down";
    return true;
  }
  response = "err unknown command: " + cmd +
             " (try: scan status why repairs mode checkpoint pause resume finish digest "
             "shutdown)";
  return true;
}

bool GuardDaemon::process_control(Connection& conn) {
  bool progressed = false;
  while (!conn.lines.empty() && running_) {
    ControlLine& front = conn.lines.front();
    if (!front.reply) {
      std::string response;
      if (!execute_command(conn, front.text, response)) {
        // A digest or finish waits for ingest to quiesce, which paused
        // delivery never does. A `shutdown` queued behind it ends the
        // wait: the waiting line is refused, and the lines up to the
        // shutdown are answered in order. Otherwise a `resume` queued
        // behind it runs now and its reply waits its turn. Hoisting stops
        // at a `pause`, so delivery ends in the state line order gives.
        auto first_word = [](const ControlLine& line) { return split(trim(line.text), ' ')[0]; };
        bool shutdown_queued = std::any_of(
            std::next(conn.lines.begin()), conn.lines.end(),
            [&](const ControlLine& line) { return first_word(line) == "shutdown"; });
        if (!shutdown_queued) {
          for (auto it = std::next(conn.lines.begin()); it != conn.lines.end(); ++it) {
            const std::string cmd = first_word(*it);
            if (cmd == "pause") break;
            if (cmd == "resume" && !it->reply) {
              execute_command(conn, it->text, it->reply.emplace());
              progressed = true;
            }
          }
          break;
        }
        response = "err shutting down before ingest quiesced";
      }
      front.reply = std::move(response);
    }
    std::string response = std::move(*front.reply);
    conn.lines.pop_front();
    // A reply is an acknowledgment: everything the command observed (and
    // every record delivered before it) must be durable before it leaves.
    if (wal_) wal_->sync();
    reply(conn, response);
    progressed = true;
  }
  return progressed;
}

bool GuardDaemon::drain() {
  bool scanned = false;
  bool progress = true;
  while (progress && running_) {
    progress = false;
    for (auto& conn : connections_) {
      if (conn->control) progress |= process_control(*conn);
    }
    if (!running_ || delivery_paused_) break;
    if (session_->scan_due_now()) {
      // Operator-requested scans are WALed *here* — at execution, not at
      // the RPC — so replay runs them at the same point in the delivered
      // sequence even when a pause held them back. Delta-threshold scans
      // are never logged: the canonical loop reproduces them.
      if (wal_ && session_->scan_requested()) wal_->append_control("scan");
      session_->run_one_due_scan();
      scanned = true;
      break;
    }
    // The oldest connection holding records delivers first, even while its
    // next records are still in the lane: a later connection's batch must
    // not overtake them.
    Connection* next = nullptr;
    for (auto& conn : connections_) {
      if (!conn->control && (!conn->inbox.empty() || conn->in_lane > 0)) {
        next = conn.get();
        break;
      }
    }
    // Nothing landed to deliver; one more control pass may have unblocked
    // a command.
    if (next == nullptr || next->inbox.empty()) continue;
    if (session_->scan_due_before(next->inbox.front())) {
      session_->run_one_due_scan();
      scanned = true;
      break;
    }
    deliver_record(std::move(next->inbox.front()));
    next->inbox.pop_front();
    maybe_resume(*next);
    progress = true;
  }

  // Destroy connections that reached EOF and have nothing left to drain.
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = **it;
    if (conn.closed && conn.inbox.empty() && conn.in_lane == 0 && conn.lines.empty()) {
      if (conn.dropped > 0) {
        HBG_WARN << "hbguardd: ingest connection closed with " << conn.dropped
                 << " record(s) dropped at the backpressure hard cap";
      }
      ::close(conn.fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
  return scanned;
}

int GuardDaemon::run() {
  if (!bound_ && !bind()) return 1;
  running_ = true;
  HBG_INFO << "hbguardd: listening on " << ingest_socket_path() << " and "
           << control_socket_path();

  std::vector<pollfd> fds;
  std::vector<Connection*> polled;  // the connection behind each fds[first_conn + i]
  bool scanned = false;  // the last drain stopped at a scan boundary
  while (running_) {
    fds.clear();
    fds.push_back({wake_read_, POLLIN, 0});
    fds.push_back({ingest_listen_, POLLIN, 0});
    fds.push_back({control_listen_, POLLIN, 0});
    std::size_t first_conn = fds.size();
    // Poll only connections that want reads: a closed or paused peer still
    // raises POLLHUP, which would wake a loop with nothing to do at once,
    // forever.
    polled.clear();
    for (const auto& conn : connections_) {
      if (conn->closed || (!conn->control && conn->paused)) continue;
      fds.push_back({conn->fd, POLLIN, 0});
      polled.push_back(conn.get());
    }

    // After a scan, only look for new events: the drain it cut short
    // resumes at once.
    int ready = io::poll_retry(fds.data(), fds.size(), scanned ? 0 : -1);
    if (ready < 0) {
      HBG_ERROR << "hbguardd: poll(): " << std::strerror(errno);
      break;
    }

    if (fds[0].revents & POLLIN) {
      char sink[64];
      while (::read(wake_read_, sink, sizeof(sink)) > 0) {
      }
      // Emptied the pipe first: a batch pushed after this swap writes it
      // again, so none is left unlanded.
      land_batches();
      if (stop_requested_.load(std::memory_order_acquire)) running_ = false;
    }
    if (fds[1].revents & POLLIN) accept_ready(ingest_listen_, /*control=*/false);
    if (fds[2].revents & POLLIN) accept_ready(control_listen_, /*control=*/true);
    // Connections are only destroyed by drain(), so every polled one is
    // still alive here.
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (fds[first_conn + i].revents & (POLLIN | POLLHUP | POLLERR)) read_connection(*polled[i]);
    }

    scanned = drain();
    maybe_checkpoint();
  }

  // Let the lane finish its queued blocks (their batches are never
  // delivered, like records still in an inbox), then flush rate-limited
  // warning tallies — the shutdown path that motivated
  // Logger::flush_suppressed().
  pool_.reset();
  if (wal_) {
    // Final checkpoint + sync: SIGTERM/SIGINT (via stop()) and `shutdown`
    // leave a state dir the next start recovers from in one import.
    std::string message;
    if (take_checkpoint(message)) {
      HBG_INFO << "hbguardd: shutdown " << message;
    } else {
      HBG_WARN << "hbguardd: shutdown checkpoint failed: " << message;
      wal_->sync();  // records are still safe; recovery replays them
    }
  }
  Logger::instance().flush_suppressed();
  HBG_INFO << "hbguardd: shut down after " << session_->records_delivered() << " records and "
           << session_->scans_run() << " scans";
  return 0;
}

}  // namespace hbguard
