// End-to-end tests for hbguardd: a loopback Unix-socket client streams the
// Fig. 2 trace through a live daemon and asserts that the GuardReport digest
// matches the synchronous library path (ReplayGuardSession::run_offline) on
// the same input — the transport must be invisible to verification. Also
// exercises the control RPC surface (status/scan/repairs/why), ingest
// backpressure with a slow (paused) consumer, fragmented ingest through the
// parse lane, an idle loop while paused behind a closed sender, a resume
// or shutdown queued behind a waiting digest, stream order across
// successive connections, out-of-range integer fields, and clean shutdown.
#include <gtest/gtest.h>

#include <dirent.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fixtures.hpp"
#include "hbguard/capture/trace_io.hpp"
#include "hbguard/daemon/daemon.hpp"
#include "hbguard/daemon/recovery.hpp"
#include "hbguard/provenance/root_cause.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/snapshot/checkpoint.hpp"
#include "hbguard/util/strings.hpp"

namespace hbguard {
namespace {

// ---- Minimal blocking loopback client (mirrors hbgctl live / feed) --------

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

/// Read one "."-framed response body off `fd`. `buffer` carries bytes read
/// past the frame over to the next call, so several replies to one write
/// can be read back one at a time. nullopt when the stream ends (or a read
/// times out) before the frame does.
std::optional<std::string> read_reply(int fd, std::string& buffer) {
  std::string body;
  char chunk[4096];
  for (;;) {
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line == ".") return body;
      if (!line.empty() && line[0] == '.') line.erase(0, 1);  // un-dot-stuff
      body += line;
      body += '\n';
    }
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return std::nullopt;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// One RPC round-trip: send `command`, collect the "."-framed response body.
std::string rpc(int fd, const std::string& command) {
  if (!send_all(fd, command + "\n")) return {};
  std::string buffer;
  return read_reply(fd, buffer).value_or("");
}

std::string chomp(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

std::string to_jsonl(const std::vector<IoRecord>& records) {
  std::ostringstream out;
  write_trace(out, records);
  return out.str();
}

/// Pull an integer field out of the one-line status JSON.
std::uint64_t status_field(const std::string& status, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  std::size_t pos = status.find(needle);
  if (pos == std::string::npos) return ~0ULL;
  return std::strtoull(status.c_str() + pos + needle.size(), nullptr, 10);
}

/// Poll `status` until `key` reads `want` (2 ms apart, 4 s bound); no
/// sample may read more than `want`. Returns the last status seen.
std::string poll_status_until(int control, const std::string& key, std::uint64_t want) {
  std::string status;
  for (int i = 0; i < 2000; ++i) {
    status = rpc(control, "status");
    std::uint64_t value = status_field(status, key);
    EXPECT_LE(value, want) << status;
    if (value == want) break;
    ::usleep(2'000);
  }
  return status;
}

/// A flat scratch directory (a WAL state dir), emptied and removed on exit.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string dir) : path(std::move(dir)) {
    wipe();
    ::mkdir(path.c_str(), 0700);
  }
  ~ScratchDir() { wipe(); }
  void wipe() {
    if (DIR* dir = ::opendir(path.c_str())) {
      while (dirent* entry = ::readdir(dir)) {
        std::string file = entry->d_name;
        if (file != "." && file != "..") ::unlink((path + "/" + file).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path.c_str());
  }
};

struct Fig2Trace {
  std::vector<IoRecord> records;
  PolicyList policies;
};

/// The misconfigured Fig. 2 run: the preferred-exit violation is in the
/// trace, so proposal-mode scans queue a repair for operator approval.
Fig2Trace make_fig2_trace() {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  return {scenario.network->capture().records(), paper_policies(scenario)};
}

DaemonOptions make_options(const Fig2Trace& trace, const std::string& suffix) {
  DaemonOptions options;
  options.socket_dir =
      "/tmp/hbguardd-test-" + std::to_string(::getpid()) + "-" + suffix;
  options.session.policies = trace.policies;
  options.session.scan_every_us = 5'000;  // several cadence boundaries per trace
  options.session.guard.repair = RepairMode::kProposeOnly;
  options.session.guard.compact_budget = 64;  // amortized compaction on
  return options;
}

// ---------------------------------------------------------------------------

TEST(Daemon, DigestParityAcrossThreadCountsWithAmortizedCompaction) {
  Fig2Trace trace = make_fig2_trace();
  ASSERT_GT(trace.records.size(), 20u);

  std::vector<std::string> digests;
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DaemonOptions options = make_options(trace, "parity-" + std::to_string(threads));
    options.session.guard.num_threads = threads;

    GuardReport offline = ReplayGuardSession::run_offline(trace.records, options.session);
    ASSERT_GE(offline.scans, 2u);  // cadence actually fired mid-stream

    GuardDaemon daemon(options);
    ASSERT_TRUE(daemon.bind());
    std::thread server([&daemon] { daemon.run(); });

    int ingest = connect_unix(daemon.ingest_socket_path());
    ASSERT_GE(ingest, 0);
    ASSERT_TRUE(send_all(ingest, to_jsonl(trace.records)));
    ::close(ingest);

    int control = connect_unix(daemon.control_socket_path());
    ASSERT_GE(control, 0);
    std::string digest = rpc(control, "digest");  // gated on ingest quiescence
    std::string bye = rpc(control, "shutdown");
    ::close(control);
    server.join();

    EXPECT_EQ(chomp(digest), chomp(offline.digest()));
    EXPECT_EQ(bye.rfind("ok", 0), 0u) << bye;
    EXPECT_EQ(daemon.session().records_delivered(), trace.records.size());
    EXPECT_EQ(daemon.records_dropped(), 0u);
    digests.push_back(chomp(digest));
  }
  // Thread count must not leak into the verdict stream.
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

TEST(Daemon, ControlSurfaceDrivesProposalsOverRpc) {
  Fig2Trace trace = make_fig2_trace();
  DaemonOptions options = make_options(trace, "rpc");

  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  std::thread server([&daemon] { daemon.run(); });

  int ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, to_jsonl(trace.records)));
  ::close(ingest);

  int control = connect_unix(daemon.control_socket_path());
  ASSERT_GE(control, 0);

  // digest first: it waits for the whole stream to drain and the tail scan
  // to run, so everything after it observes the final state.
  std::string digest = rpc(control, "digest");
  EXPECT_FALSE(chomp(digest).empty());

  std::string status = rpc(control, "status");
  EXPECT_EQ(status_field(status, "records_delivered"), trace.records.size());
  EXPECT_EQ(status_field(status, "records_dropped"), 0u);
  EXPECT_GE(status_field(status, "scans"), 2u);
  EXPECT_GE(status_field(status, "incidents"), 1u);  // preferred-exit violated
  EXPECT_EQ(status_field(status, "proposals_pending"), 1u);
  EXPECT_NE(status.find("\"finished\":true"), std::string::npos) << status;
  // Whether scans stay incremental: the first scan's delta is always full.
  EXPECT_GE(status_field(status, "snapshot_full_deltas"), 1u) << status;
  EXPECT_LE(status_field(status, "snapshot_full_deltas"), status_field(status, "scans"));
  EXPECT_NE(status_field(status, "snapshot_closure_fallbacks"), ~0ULL) << status;
  EXPECT_NE(status_field(status, "verify_reused_policies"), ~0ULL) << status;

  std::string list = rpc(control, "repairs list");
  EXPECT_NE(list.find("#1 pending"), std::string::npos) << list;

  // Malformed ids are refused whole: a digit prefix, no digits at all, or a
  // value past 64 bits must not be read as some other id.
  for (const char* bad : {"repairs decline 1x", "repairs decline abc",
                          "repairs approve 18446744073709551616", "why 3abc"}) {
    std::string answer = rpc(control, bad);
    EXPECT_EQ(answer.rfind("err bad id", 0), 0u) << bad << " -> " << answer;
  }
  list = rpc(control, "repairs list");
  EXPECT_NE(list.find("#1 pending"), std::string::npos) << list;

  // The replay host does not own the misconfigured device's config store, so
  // approval reports the out-of-band path rather than faking a revert.
  std::string approve = rpc(control, "repairs approve 1");
  EXPECT_EQ(approve.rfind("err", 0), 0u) << approve;
  EXPECT_NE(approve.find("out of band"), std::string::npos) << approve;

  std::string decline = rpc(control, "repairs decline 1");
  EXPECT_EQ(decline.rfind("ok", 0), 0u) << decline;
  EXPECT_NE(rpc(control, "repairs list").find("#1 declined"), std::string::npos);

  EXPECT_EQ(rpc(control, "why 999999").rfind("err", 0), 0u);
  EXPECT_EQ(rpc(control, "bogus-command").rfind("err", 0), 0u);

  std::string bye = rpc(control, "shutdown");
  EXPECT_EQ(bye.rfind("ok", 0), 0u) << bye;
  ::close(control);
  server.join();
  const Guard& guard = daemon.session().guard();
  EXPECT_EQ(status_field(status, "verify_reused_policies"),
            guard.verifier_stats().reused_policies);
  EXPECT_EQ(status_field(status, "snapshot_full_deltas"), guard.snapshot_stats().full_deltas);
  EXPECT_EQ(status_field(status, "snapshot_closure_fallbacks"),
            guard.snapshot_stats().closure_fallbacks);
}

TEST(Daemon, WhyOverRpcRendersTheSessionGraph) {
  Fig2Trace trace = make_fig2_trace();
  DaemonOptions options = make_options(trace, "why");
  auto fib = std::find_if(trace.records.rbegin(), trace.records.rend(),
                          [](const IoRecord& r) { return r.kind == IoKind::kFibUpdate; });
  ASSERT_NE(fib, trace.records.rend());

  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  std::thread server([&daemon] { daemon.run(); });
  int ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, to_jsonl(trace.records)));
  ::close(ingest);
  int control = connect_unix(daemon.control_socket_path());
  ASSERT_GE(control, 0);
  EXPECT_FALSE(chomp(rpc(control, "digest")).empty());  // every record is in the graph
  std::string why = rpc(control, "why " + std::to_string(fib->id));
  EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
  ::close(control);
  server.join();

  // The answer borrowed the live graph; rendering a copy of it must agree
  // byte for byte.
  const Guard& guard = daemon.session().guard();
  ASSERT_NE(guard.live_hbg(), nullptr);
  HappensBeforeGraph hbg = guard.current_hbg();
  ASSERT_NE(hbg.record(fib->id), nullptr);
  RootCauseAnalyzer analyzer;
  EXPECT_EQ(chomp(why), chomp(RootCauseAnalyzer::render(hbg, analyzer.analyze(hbg, fib->id))));
  EXPECT_NE(why.rfind("err", 0), 0u) << why;
}

TEST(Daemon, BackpressureSlowConsumerDropsAtHardCapThenRecovers) {
  Fig2Trace trace = make_fig2_trace();
  ASSERT_GT(trace.records.size(), 20u);

  DaemonOptions options = make_options(trace, "backpressure");
  options.inbox_soft_limit = 4;  // hard cap 8 — far below the trace size

  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  std::thread server([&daemon] { daemon.run(); });

  int control = connect_unix(daemon.control_socket_path());
  ASSERT_GE(control, 0);
  ASSERT_EQ(rpc(control, "pause").rfind("ok", 0), 0u);

  // With delivery paused the inbox cannot drain: reads stop at the soft
  // limit (lossless kernel backpressure), and a single read burst that
  // overshoots the hard cap is dropped. Send all but the last 12 records as
  // one burst — the inbox caps at 8, the rest of the burst is dropped.
  std::size_t tail_count = 12;
  std::vector<IoRecord> head(trace.records.begin(), trace.records.end() - tail_count);
  std::vector<IoRecord> tail(trace.records.end() - tail_count, trace.records.end());
  std::uint64_t sent = trace.records.size();

  int ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, to_jsonl(head)));

  // Resume: the buffered 8 deliver, the connection unpauses, and the reads
  // release. digest is the drain barrier — after it, the head is fully
  // accounted (delivered or dropped).
  ASSERT_EQ(rpc(control, "resume").rfind("ok", 0), 0u);
  EXPECT_FALSE(chomp(rpc(control, "digest")).empty());
  std::string mid_status = rpc(control, "status");
  std::uint64_t dropped = status_field(mid_status, "records_dropped");
  EXPECT_GT(dropped, 0u) << mid_status;

  // The tail now streams through the recovered connection in small bursts
  // with status round-trips in between (bursts can still coalesce while a
  // cadence scan holds delivery, so a few more hard-cap drops are legal).
  // Delivered tail records follow the dropped middle of the trace, so their
  // router_seq jumps must surface as stream-health gaps at the next scan.
  for (std::size_t i = 0; i < tail.size(); i += 4) {
    std::vector<IoRecord> burst(tail.begin() + i,
                                tail.begin() + std::min(i + 4, tail.size()));
    ASSERT_TRUE(send_all(ingest, to_jsonl(burst)));
    EXPECT_NE(rpc(control, "status").find("records_delivered"), std::string::npos);
  }
  ::close(ingest);
  EXPECT_FALSE(chomp(rpc(control, "digest")).empty());  // tail drain barrier
  ASSERT_EQ(rpc(control, "scan").rfind("ok", 0), 0u);

  std::string status = rpc(control, "status");
  std::uint64_t final_dropped = status_field(status, "records_dropped");
  EXPECT_GE(final_dropped, dropped) << status;
  // Every record sent is accounted for: delivered or dropped, never lost.
  EXPECT_EQ(status_field(status, "records_delivered") + final_dropped, sent) << status;
  // Dropped records leave router_seq gaps the stream-health layer must see.
  EXPECT_GT(status_field(status, "stream_gaps"), 0u) << status;

  std::string bye = rpc(control, "shutdown");
  EXPECT_EQ(bye.rfind("ok", 0), 0u) << bye;
  ::close(control);
  server.join();

  EXPECT_EQ(daemon.records_dropped(), final_dropped);
  EXPECT_EQ(daemon.session().records_delivered(), sent - final_dropped);
}

TEST(Daemon, FragmentedIngestThroughTheParseLane) {
  // Writes of 1 B to 8 KB split records mid-line, so the lane's blocks
  // start and end anywhere in the stream; two successive connections must
  // still deliver in stream order, with the WAL off and on.
  Fig2Trace trace = make_fig2_trace();
  const std::size_t sent = trace.records.size();
  const std::size_t half = sent / 2;
  for (bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "WAL on" : "WAL off");
    DaemonOptions options = make_options(trace, durable ? "fragmented-wal" : "fragmented");
    ScratchDir state(options.socket_dir + "-state");
    if (durable) options.state_dir = state.path;
    GuardReport offline = ReplayGuardSession::run_offline(trace.records, options.session);

    GuardDaemon daemon(options);
    ASSERT_TRUE(daemon.bind());
    std::thread server([&daemon] { daemon.run(); });
    int control = connect_unix(daemon.control_socket_path());
    ASSERT_GE(control, 0);
    // A missing reply fails the read instead of hanging the test.
    timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(control, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
    ASSERT_EQ(rpc(control, "pause").rfind("ok", 0), 0u);

    // Log-uniform sizes: tiny writes split single records, large ones
    // carry many lines per read.
    std::mt19937 rng(durable ? 19 : 17);
    auto write_size = [&rng] { return 1 + rng() % (std::size_t{1} << (rng() % 14)); };
    for (auto [begin, end] : {std::pair{std::size_t{0}, half}, std::pair{half, sent}}) {
      std::string jsonl = to_jsonl({trace.records.begin() + static_cast<std::ptrdiff_t>(begin),
                                    trace.records.begin() + static_cast<std::ptrdiff_t>(end)});
      int ingest = connect_unix(daemon.ingest_socket_path());
      ASSERT_GE(ingest, 0);
      for (std::string_view rest = jsonl; !rest.empty();) {
        std::size_t n = std::min(write_size(), rest.size());
        ASSERT_TRUE(send_all(ingest, rest.substr(0, n)));
        rest.remove_prefix(n);
      }
      ::close(ingest);
    }

    // Paused: every line ends up buffered (inbox or lane), none delivered.
    std::string status = poll_status_until(control, "records_buffered", sent);
    EXPECT_EQ(status_field(status, "records_buffered"), sent) << status;
    EXPECT_EQ(status_field(status, "records_delivered"), 0u) << status;
    ASSERT_EQ(rpc(control, "resume").rfind("ok", 0), 0u);
    status = poll_status_until(control, "records_delivered", sent);
    EXPECT_EQ(status_field(status, "records_delivered"), sent) << status;
    EXPECT_EQ(status_field(status, "records_dropped"), 0u) << status;
    EXPECT_EQ(status_field(status, "records_rejected"), 0u) << status;

    EXPECT_EQ(chomp(rpc(control, "digest")), chomp(offline.digest()));
    EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
    ::close(control);
    server.join();
    EXPECT_EQ(daemon.records_dropped(), 0u);
    EXPECT_EQ(daemon.session().records_delivered(), sent);
  }
}

TEST(Daemon, PausedDeliveryBehindClosedSenderDoesNotSpin) {
  // With delivery paused, an ingest connection whose sender has closed
  // holds its records until resume, and its socket raises POLLHUP. A loop
  // that kept polling it would wake at once, forever. The connection gets
  // there two ways: the daemon reads through EOF (default soft limit), or
  // reads pause at the soft limit before EOF is read (the hard cap, twice
  // that, stays above the trace's length, so nothing is dropped).
  Fig2Trace trace = make_fig2_trace();
  const std::size_t sent = trace.records.size();
  for (bool at_soft_limit : {false, true}) {
    SCOPED_TRACE(at_soft_limit ? "paused at the soft limit" : "read through EOF");
    DaemonOptions options = make_options(trace, at_soft_limit ? "spin-soft" : "spin-eof");
    if (at_soft_limit) options.inbox_soft_limit = sent - 1;
    const std::uint64_t held = at_soft_limit ? options.inbox_soft_limit : sent;
    GuardReport offline = ReplayGuardSession::run_offline(trace.records, options.session);

    GuardDaemon daemon(options);
    ASSERT_TRUE(daemon.bind());
    std::thread server([&daemon] { daemon.run(); });
    int control = connect_unix(daemon.control_socket_path());
    ASSERT_GE(control, 0);
    timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(control, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
    ASSERT_EQ(rpc(control, "pause").rfind("ok", 0), 0u);

    int ingest = connect_unix(daemon.ingest_socket_path());
    ASSERT_GE(ingest, 0);
    ASSERT_TRUE(send_all(ingest, to_jsonl(trace.records)));
    ::close(ingest);
    std::uint64_t buffered = 0;
    for (int i = 0; i < 2000 && buffered < held; ++i) {
      buffered = status_field(rpc(control, "status"), "records_buffered");
      if (buffered < held) ::usleep(2'000);
    }
    ASSERT_GE(buffered, held);
    ASSERT_LE(buffered, sent);

    // Nothing can happen until resume, so the loop thread must sleep.
    clockid_t clock{};
    ASSERT_EQ(::pthread_getcpuclockid(server.native_handle(), &clock), 0);
    auto cpu_seconds = [clock] {
      timespec now{};
      ::clock_gettime(clock, &now);
      return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
    };
    const double before = cpu_seconds();
    ::usleep(1'000'000);
    EXPECT_LT(cpu_seconds() - before, 0.05) << "CPU seconds used over 1 s while paused";

    ASSERT_EQ(rpc(control, "resume").rfind("ok", 0), 0u);
    EXPECT_EQ(chomp(rpc(control, "digest")), chomp(offline.digest()));
    EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
    ::close(control);
    server.join();
    EXPECT_EQ(daemon.records_dropped(), 0u);
    EXPECT_EQ(daemon.session().records_delivered(), sent);
  }
}

TEST(Daemon, ResumeQueuedBehindADeferredDigestRunsAtOnce) {
  // With delivery paused, a digest cannot quiesce until delivery resumes.
  // A `resume` written behind it on the same connection must not wait for
  // it: the resume runs at once, the digest then answers, and the resume's
  // reply follows in line order.
  Fig2Trace trace = make_fig2_trace();
  DaemonOptions options = make_options(trace, "resume-behind-digest");
  GuardReport offline = ReplayGuardSession::run_offline(trace.records, options.session);

  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  std::thread server([&daemon] { daemon.run(); });
  int control = connect_unix(daemon.control_socket_path());
  ASSERT_GE(control, 0);
  timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(control, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  ASSERT_EQ(rpc(control, "pause").rfind("ok", 0), 0u);

  int ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, to_jsonl(trace.records)));
  ::close(ingest);
  poll_status_until(control, "records_buffered", trace.records.size());

  ASSERT_TRUE(send_all(control, "digest\nresume\n"));
  std::string buffer;
  std::optional<std::string> digest = read_reply(control, buffer);
  std::optional<std::string> resumed;
  if (digest) resumed = read_reply(control, buffer);
  if (digest && resumed) {
    EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
  } else {
    daemon.stop();  // a line went unanswered: end the loop instead of hanging
  }
  ::close(control);
  server.join();

  ASSERT_TRUE(digest.has_value()) << "digest got no reply within 5 s";
  EXPECT_EQ(chomp(*digest), chomp(offline.digest()));
  ASSERT_TRUE(resumed.has_value()) << "resume got no reply within 5 s";
  EXPECT_EQ(chomp(*resumed), "ok delivery resumed");
  EXPECT_EQ(daemon.session().records_delivered(), trace.records.size());
}

TEST(Daemon, ShutdownQueuedBehindADeferredDigestStops) {
  // With delivery paused, a digest cannot quiesce. A `shutdown` written
  // behind it on the same connection must not wait for it: the digest is
  // refused, the status between them answers in line order, the shutdown
  // is acknowledged, and run() returns through its final checkpoint.
  Fig2Trace trace = make_fig2_trace();
  DaemonOptions options = make_options(trace, "shutdown-behind-digest");
  ScratchDir state(options.socket_dir + "-state");
  options.state_dir = state.path;

  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  int rc = -1;
  std::thread server([&daemon, &rc] { rc = daemon.run(); });
  int control = connect_unix(daemon.control_socket_path());
  ASSERT_GE(control, 0);
  timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(control, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  ASSERT_EQ(rpc(control, "pause").rfind("ok", 0), 0u);

  int ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, to_jsonl(trace.records)));
  ::close(ingest);
  poll_status_until(control, "records_buffered", trace.records.size());

  ASSERT_TRUE(send_all(control, "digest\nstatus\nshutdown\n"));
  std::string buffer;
  std::vector<std::string> replies;
  while (replies.size() < 3) {
    std::optional<std::string> reply = read_reply(control, buffer);
    if (!reply) break;
    replies.push_back(chomp(*reply));
  }
  if (replies.size() < 3) daemon.stop();  // a line went unanswered: end the loop
  ::close(control);
  server.join();

  ASSERT_EQ(replies.size(), 3u) << "a line got no reply within 5 s";
  EXPECT_EQ(replies[0].rfind("err", 0), 0u) << replies[0];
  EXPECT_EQ(replies[1].rfind("{\"records_delivered\"", 0), 0u) << replies[1];
  EXPECT_EQ(replies[2], "ok shutting down");
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(list_checkpoints(state.path).empty()) << "no final checkpoint";
  EXPECT_EQ(daemon.session().records_delivered(), 0u);  // delivery never resumed
}

TEST(Daemon, LaterConnectionWaitsForAnEarlierOnesLaneUnderBackpressure) {
  // The first connection pauses at the soft limit with the rest of its
  // stream unread; the second arrives whole. After resume, the first
  // one's tail is read into the lane when its inbox falls to half the
  // soft limit, and its inbox then empties before that block lands (no
  // scans, so delivery never returns to poll). The second connection's
  // records must still wait for it.
  Fig2Trace trace = make_fig2_trace();
  std::vector<IoRecord> records;
  while (records.size() < 1200) {
    for (IoRecord record : trace.records) {
      record.id = records.size() + 1;  // ids give the stream order
      records.push_back(std::move(record));
    }
  }
  records.resize(1200);
  std::vector<IoRecord> first(records.begin(), records.begin() + 800);
  std::vector<IoRecord> second(records.begin() + 800, records.end());

  DaemonOptions options = make_options(trace, "order");
  options.inbox_soft_limit = 512;      // ~2 reads of 64 KiB; hard cap 1024
  options.session.scan_every_us = 0;   // no scan interrupts a delivery pass
  options.session.stream_health = false;  // the store keeps delivery order
  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  std::thread server([&daemon] { daemon.run(); });
  int control = connect_unix(daemon.control_socket_path());
  ASSERT_GE(control, 0);
  timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(control, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  ASSERT_EQ(rpc(control, "pause").rfind("ok", 0), 0u);

  // ~175 KB: the daemon buffers 512+ lines and leaves the rest (well under
  // a socket buffer) unread, so the write completes while paused.
  int ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, to_jsonl(first)));
  std::uint64_t held = 0;
  for (int i = 0; i < 2000 && held < options.inbox_soft_limit; ++i) {
    held = status_field(rpc(control, "status"), "records_buffered");
    if (held < options.inbox_soft_limit) ::usleep(2'000);
  }
  ASSERT_GE(held, options.inbox_soft_limit);
  ASSERT_LT(held, first.size());  // part of the first stream is still unread
  ::close(ingest);

  ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, to_jsonl(second)));
  ::close(ingest);
  poll_status_until(control, "records_buffered", held + second.size());

  ASSERT_EQ(rpc(control, "resume").rfind("ok", 0), 0u);
  std::string status = poll_status_until(control, "records_delivered", records.size());
  EXPECT_EQ(status_field(status, "records_dropped"), 0u) << status;
  EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
  ::close(control);
  server.join();

  const std::vector<IoRecord>& stored = daemon.session().network().capture().records();
  ASSERT_EQ(stored.size(), records.size());
  for (std::size_t i = 0; i < stored.size(); ++i) {
    ASSERT_EQ(stored[i].id, i + 1) << "record " << i << " out of stream order";
  }
}

TEST(Daemon, RejectsHostileLinesAndKeepsIngesting) {
  // A line nesting 100 000 brackets used to overflow the parser's stack and
  // kill the daemon; it, a record with trailing bytes, a line past the
  // daemon's 1 MiB line cap and an unterminated tail at EOF must each be
  // rejected and counted, and the valid records around them delivered.
  Fig2Trace trace = make_fig2_trace();
  DaemonOptions options = make_options(trace, "hostile");

  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  std::thread server([&daemon] { daemon.run(); });

  std::vector<IoRecord> valid(trace.records.begin(), trace.records.begin() + 3);
  std::string payload = "{\"id\":1,\"x\":" + std::string(100'000, '[') + "\n";
  payload += to_json_line(valid[0]) + " trailing garbage\n";
  payload += to_jsonl({valid[0], valid[1]});
  // 3 MiB before its newline: discarded whole, counted once.
  payload += to_json_line(trace.records[3]) + std::string(3 << 20, ' ') + "\n";
  payload += to_jsonl({valid[2]});
  payload += to_json_line(trace.records[3]);  // no newline before EOF

  int ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, payload));
  ::close(ingest);

  int control = connect_unix(daemon.control_socket_path());
  ASSERT_GE(control, 0);
  // Poll instead of `digest`: ingest has no acknowledgement yet, so only
  // the counters themselves prove every line was read.
  std::string status;
  for (int i = 0; i < 2000; ++i) {
    status = rpc(control, "status");
    if (status_field(status, "records_rejected") + status_field(status, "records_delivered") ==
        4 + valid.size()) {
      break;
    }
    ::usleep(2'000);
  }
  EXPECT_EQ(status_field(status, "records_rejected"), 4u) << status;
  EXPECT_EQ(status_field(status, "records_delivered"), valid.size()) << status;
  // An oversize control line is answered, and the connection still works.
  EXPECT_EQ(rpc(control, std::string(2 << 20, 's')).rfind("err line too long", 0), 0u);
  EXPECT_NE(rpc(control, "status").find("records_delivered"), std::string::npos);
  EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
  ::close(control);
  server.join();
}

TEST(Daemon, RejectsOutOfRangeIntegersWithDigestParity) {
  // Integers a field's type cannot hold used to be cast: "id":-1 wrapped to
  // 2^64 - 1 and broke the HBG's id table, an id of 2^40 exhausted memory,
  // and a router of 2^32 read as router 0. Each such line must be rejected
  // and counted, and the digest must equal the offline pass over the
  // remaining lines.
  Fig2Trace trace = make_fig2_trace();
  DaemonOptions options = make_options(trace, "ranges");
  GuardReport offline = ReplayGuardSession::run_offline(trace.records, options.session);

  // The first occurrence of a key wins, so a member put in front overrides
  // the record's own.
  const std::string base = to_json_line(trace.records[trace.records.size() / 2]);
  auto with_front = [&](const std::string& member) { return "{" + member + "," + base.substr(1); };
  const std::vector<std::string> hostile = {
      with_front("\"id\":-1"),
      with_front("\"id\":1099511627776"),
      with_front("\"id\":0"),
      with_front("\"router\":4294967296"),
      with_front("\"peer\":-1"),
      with_front("\"local_pref\":4294967296"),
      with_front("\"link\":-2"),
      with_front("\"fib_entry\":{\"prefix\":\"10.0.0.0/24\",\"action\":\"forward\","
                 "\"next_hop\":4294967296}"),
  };
  ASSERT_GT(trace.records.size(), 3 * hostile.size());
  std::string payload;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    if (i % 3 == 0 && i / 3 < hostile.size()) payload += hostile[i / 3] + "\n";
    payload += to_json_line(trace.records[i]) + "\n";
  }

  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  std::thread server([&daemon] { daemon.run(); });
  int ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, payload));
  ::close(ingest);

  int control = connect_unix(daemon.control_socket_path());
  ASSERT_GE(control, 0);
  timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(control, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  std::string status;
  for (int i = 0; i < 2000; ++i) {
    status = rpc(control, "status");
    if (status_field(status, "records_rejected") + status_field(status, "records_delivered") ==
        hostile.size() + trace.records.size()) {
      break;
    }
    ::usleep(2'000);
  }
  EXPECT_EQ(status_field(status, "records_rejected"), hostile.size()) << status;
  EXPECT_EQ(status_field(status, "records_delivered"), trace.records.size()) << status;
  EXPECT_EQ(chomp(rpc(control, "digest")), chomp(offline.digest()));
  EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
  ::close(control);
  server.join();
}

/// Every truncation of each well-formed control command (but `shutdown`),
/// plus seeded byte flips — some of which split a command into two lines.
std::vector<std::string> control_mutations() {
  const std::vector<std::string> commands = {
      "status",           "scan",          "pause",         "resume",
      "why 1",            "repairs list",  "repairs approve 1", "repairs decline 1",
      "repairs revert 1", "mode report",   "mode propose",  "checkpoint",
      "digest"};
  std::mt19937 rng(16);
  std::vector<std::string> mutations;
  for (const std::string& command : commands) {
    for (std::size_t length = 0; length <= command.size(); ++length) {
      mutations.push_back(command.substr(0, length));
    }
    for (int flip = 0; flip < 16; ++flip) {
      std::string mutated = command;
      std::size_t at = rng() % mutated.size();
      mutated[at] = static_cast<char>(mutated[at] ^ (1 + rng() % 255));
      mutations.push_back(mutated);
    }
  }
  return mutations;
}

std::size_t nonempty_lines(const std::string& text) {
  std::size_t count = 0;
  for (const std::string& line : split(text, '\n')) count += line.empty() ? 0 : 1;
  return count;
}

TEST(Daemon, ControlRpcAnswersEveryMutatedLineExactlyOnce) {
  Fig2Trace trace = make_fig2_trace();
  DaemonOptions options = make_options(trace, "fuzz");
  std::vector<std::string> mutations = control_mutations();

  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  std::thread server([&daemon] { daemon.run(); });

  int ingest = connect_unix(daemon.ingest_socket_path());
  ASSERT_GE(ingest, 0);
  ASSERT_TRUE(send_all(ingest, to_jsonl(trace.records)));
  ::close(ingest);

  int control = connect_unix(daemon.control_socket_path());
  ASSERT_GE(control, 0);
  // A missing reply fails the read instead of hanging the test.
  timeval timeout{10, 0};
  ASSERT_EQ(::setsockopt(control, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  EXPECT_FALSE(chomp(rpc(control, "digest")).empty());  // the whole trace is delivered

  std::string buffer;
  for (const std::string& mutation : mutations) {
    ASSERT_TRUE(send_all(control, mutation + "\n"));
    for (std::size_t i = 0; i < nonempty_lines(mutation); ++i) {
      ASSERT_TRUE(read_reply(control, buffer).has_value()) << '"' << mutation << '"';
    }
    // The next reply answers this status: no mutation got a second reply.
    ASSERT_TRUE(send_all(control, "status\n"));
    std::optional<std::string> status = read_reply(control, buffer);
    ASSERT_TRUE(status.has_value()) << '"' << mutation << '"';
    ASSERT_EQ(status->rfind("{\"records_delivered\"", 0), 0u)
        << '"' << mutation << "\" -> " << *status;
  }
  EXPECT_EQ(status_field(rpc(control, "status"), "records_delivered"), trace.records.size());
  EXPECT_EQ(rpc(control, "shutdown").rfind("ok", 0), 0u);
  ::close(control);
  server.join();

  // The replay path runs the same lines through apply_logged_control.
  ReplayGuardSession session(options.session);
  for (const IoRecord& record : trace.records) {
    while (session.scan_due_before(record)) session.run_one_due_scan();
    session.deliver(record);
    while (session.scan_due_now()) session.run_one_due_scan();
  }
  for (const std::string& mutation : mutations) {
    std::string answer = apply_logged_control(session, mutation);
    EXPECT_TRUE(answer.rfind("ok", 0) == 0 || answer.rfind("err", 0) == 0)
        << '"' << mutation << "\" -> " << answer;
  }
}

TEST(Daemon, StopRequestExitsTheLoopCleanly) {
  Fig2Trace trace = make_fig2_trace();
  DaemonOptions options = make_options(trace, "stop");

  GuardDaemon daemon(options);
  ASSERT_TRUE(daemon.bind());
  int rc = -1;
  std::thread server([&daemon, &rc] { rc = daemon.run(); });
  // stop() is the signal-handler path: thread-safe, wakes the poll loop.
  daemon.stop();
  server.join();
  EXPECT_EQ(rc, 0);
}

}  // namespace
}  // namespace hbguard
