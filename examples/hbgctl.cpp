// hbgctl — operator CLI for the guard: offline trace analysis plus a live
// control surface for a running hbguardd.
//
// Offline: feed it a trace exported by write_trace() (or by a real collector
// emitting the same schema) and ask questions — summarize, infer the HBG,
// root-cause an I/O, or verify the replayed data plane.
//
// Live: `hbgctl live` speaks the line-oriented RPC on hbguardd's control
// socket (scan, status, why, repairs, shutdown, ...) and `hbgctl feed`
// streams a JSONL trace into its ingest socket — together they drive a
// daemon end to end from the shell. Run `hbgctl --help` for the full
// command table (CI keeps README.md in sync with it).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/render.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/capture/trace_archive.hpp"
#include "hbguard/capture/trace_io.hpp"
#include "hbguard/util/strings.hpp"
#include "hbguard/provenance/root_cause.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/snapshot/incremental.hpp"
#include "hbguard/verify/verifier.hpp"

using namespace hbguard;

namespace {

// Keep this text in sync with the command table in README.md — CI diffs
// `hbgctl --help` against the block between the hbgctl-help markers there.
constexpr const char* kHelpText =
    "usage: hbgctl <command> ...\n"
    "offline analysis (<trace> is JSONL or a binary trace archive):\n"
    "  stats  <trace>                    trace summary\n"
    "  hbg    <trace> [--dot]            infer the happens-before graph\n"
    "  why    <trace> <io-id>            root causes of an I/O\n"
    "  verify <trace> <prefix>...        loop/blackhole check\n"
    "  demo   <out.jsonl>                write a sample trace (Fig. 2)\n"
    "  convert <in> <out>                transcode JSONL <-> binary archive\n"
    "                                    (direction chosen by sniffing <in>)\n"
    "live control (against a running hbguardd):\n"
    "  live   <ctl.sock|dir> <rpc...>    one RPC on the control socket:\n"
    "                                    scan | status | why <io-id> |\n"
    "                                    repairs list|approve <id>|decline <id>|revert <id> |\n"
    "                                    mode report|propose | checkpoint |\n"
    "                                    pause | resume | finish | digest | shutdown\n"
    "  feed   <ingest.sock> <trace>      stream a trace into the ingest socket\n"
    "live options (before the command):\n"
    "  --retry-ms <n>                    initial backoff for connect retries,\n"
    "                                    1..2000 (default 50; doubles up to 2s)\n"
    "  --retry-max <n>                   retry a refused/absent socket up to\n"
    "                                    <n> times, e.g. across a daemon\n"
    "                                    restart/recovery (default 0)\n";

int usage() {
  std::fputs(kHelpText, stderr);
  return 2;
}

/// Report a malformed argument; returns usage()'s exit code.
int bad_argument(const std::string& message) {
  std::fprintf(stderr, "hbgctl: %s\n", message.c_str());
  return usage();
}

/// Most milliseconds --retry-ms accepts: the backoff's doubling cap.
constexpr long kMaxBackoffMs = 2000;

std::optional<std::vector<IoRecord>> load(const std::string& path) {
  if (is_trace_archive(path)) {
    TraceArchiveReader reader;
    std::vector<IoRecord> records;
    if (!reader.open(path) || !reader.read_all(records)) {
      std::fprintf(stderr, "hbgctl: %s\n", reader.error().c_str());
      return std::nullopt;
    }
    return records;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "hbgctl: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  auto parsed = parse_trace(in);
  for (const auto& error : parsed.errors) {
    std::fprintf(stderr, "hbgctl: %s:%zu: %s\n", path.c_str(), error.line,
                 error.message.c_str());
  }
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed.records);
}

// Transcode between the codecs; the input's magic decides the direction.
int cmd_convert(const std::string& in_path, const std::string& out_path) {
  ArchiveConvertStats stats;
  std::string error;
  if (is_trace_archive(in_path)) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "hbgctl: cannot write %s\n", out_path.c_str());
      return 1;
    }
    if (!convert_archive_to_jsonl(in_path, out, {}, &stats, &error)) {
      std::fprintf(stderr, "hbgctl: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %llu record(s) as JSONL to %s\n",
                static_cast<unsigned long long>(stats.records), out_path.c_str());
    return 0;
  }
  std::ifstream in(in_path);
  if (!in) {
    std::fprintf(stderr, "hbgctl: cannot open %s\n", in_path.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "hbgctl: cannot write %s\n", out_path.c_str());
    return 1;
  }
  if (!convert_jsonl_to_archive(in, out, {}, &stats, &error)) {
    std::fprintf(stderr, "hbgctl: %s\n", error.c_str());
    return 1;
  }
  if (stats.parse_errors != 0) {
    std::fprintf(stderr, "hbgctl: skipped %llu malformed line(s)\n",
                 static_cast<unsigned long long>(stats.parse_errors));
  }
  std::printf("wrote %llu record(s) as a trace archive to %s\n",
              static_cast<unsigned long long>(stats.records), out_path.c_str());
  return stats.parse_errors == 0 ? 0 : 1;
}

int cmd_stats(const std::vector<IoRecord>& records) {
  std::map<RouterId, std::size_t> per_router;
  std::map<IoKind, std::size_t> per_kind;
  SimTime first = records.empty() ? 0 : records.front().logged_time;
  SimTime last = first;
  for (const IoRecord& r : records) {
    ++per_router[r.router];
    ++per_kind[r.kind];
    first = std::min(first, r.logged_time);
    last = std::max(last, r.logged_time);
  }
  std::printf("%zu records from %zu routers spanning %s of virtual time\n", records.size(),
              per_router.size(), format_duration_us(last - first).c_str());
  for (const auto& [kind, count] : per_kind) {
    std::printf("  %-9s %zu\n", std::string(to_string(kind)).c_str(), count);
  }
  return 0;
}

int cmd_hbg(const std::vector<IoRecord>& records, bool dot) {
  auto hbg = HbgBuilder::build(records, RuleMatchingInference());
  if (dot) {
    std::printf("%s", to_dot(hbg).c_str());
  } else {
    std::printf("HBG: %zu vertices, %zu edges, %zu provenance leaves\n", hbg.vertex_count(),
                hbg.edge_count(), hbg.all_leaves().size());
    std::printf("%s", to_timeline(hbg).c_str());
  }
  return 0;
}

int cmd_why(const std::vector<IoRecord>& records, IoId io) {
  auto hbg = HbgBuilder::build(records, RuleMatchingInference());
  if (hbg.record(io) == nullptr) {
    std::fprintf(stderr, "hbgctl: no record #%llu in trace\n",
                 static_cast<unsigned long long>(io));
    return 1;
  }
  RootCauseAnalyzer analyzer;
  auto provenance = analyzer.analyze(hbg, io);
  std::printf("%s", RootCauseAnalyzer::render(hbg, provenance).c_str());
  return 0;
}

int cmd_verify(const std::vector<IoRecord>& records, const std::vector<Prefix>& prefixes) {
  auto hbg = HbgBuilder::build(records, RuleMatchingInference());
  ConsistencyReport report;
  auto snapshot = IncrementalSnapshotter::build({}, records, hbg, {}, &report);
  std::printf("replayed consistent snapshot (%zu routers, %zu I/Os rewound)\n",
              snapshot.routers.size(), report.total_rewound());

  PolicyList policies;
  for (const Prefix& prefix : prefixes) {
    policies.push_back(std::make_shared<LoopFreedomPolicy>(prefix));
    policies.push_back(std::make_shared<BlackholeFreedomPolicy>(prefix));
  }
  auto result = Verifier(policies).verify(snapshot);
  if (result.clean()) {
    std::printf("verdict: CLEAN (%zu policies)\n", policies.size());
    return 0;
  }
  std::printf("verdict: %zu violation(s)\n", result.violations.size());
  for (const Violation& violation : result.violations) {
    std::printf("  %s\n", violation.describe().c_str());
  }
  return 1;
}

int cmd_demo(const std::string& path) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "hbgctl: cannot write %s\n", path.c_str());
    return 1;
  }
  write_trace(out, scenario.network->capture().records());
  std::printf("wrote %zu records to %s (the Fig. 2 scenario; prefix %s)\n",
              scenario.network->capture().records().size(), path.c_str(),
              scenario.prefix_p.to_string().c_str());
  return 0;
}

// Bounded connect retry (--retry-ms/--retry-max): a daemon mid-restart —
// e.g. replaying a long WAL before it binds its sockets — shows up as
// ECONNREFUSED (stale socket file) or ENOENT (not bound yet). Both are
// retried with exponential backoff; any other error fails immediately.
struct RetryOptions {
  long initial_ms = 50;
  std::size_t max_retries = 0;
};

int connect_unix(const std::string& path, const RetryOptions& retry = {}) {
  long backoff_ms = retry.initial_ms;
  for (std::size_t attempt = 0;; ++attempt) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      std::fprintf(stderr, "hbgctl: socket: %s\n", std::strerror(errno));
      return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      std::fprintf(stderr, "hbgctl: socket path too long: %s\n", path.c_str());
      ::close(fd);
      return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    int saved = errno;
    ::close(fd);
    bool retryable = saved == ECONNREFUSED || saved == ENOENT;
    if (!retryable || attempt >= retry.max_retries) {
      std::fprintf(stderr, "hbgctl: connect %s: %s%s\n", path.c_str(),
                   std::strerror(saved),
                   retryable && retry.max_retries > 0 ? " (retries exhausted)" : "");
      return -1;
    }
    ::usleep(static_cast<useconds_t>(backoff_ms) * 1000);
    backoff_ms = std::min(backoff_ms * 2, kMaxBackoffMs);
  }
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "hbgctl: write: %s\n", std::strerror(errno));
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Send one RPC line; print the "."-framed response (un-dot-stuffed).
int cmd_live(const std::string& target, const std::vector<std::string>& rpc,
             const RetryOptions& retry) {
  std::string path = target;
  // Accept the daemon's socket directory as shorthand for its control socket.
  if (path.size() < 5 || path.compare(path.size() - 5, 5, ".sock") != 0) {
    path += "/control.sock";
  }
  int fd = connect_unix(path, retry);
  if (fd < 0) return 1;
  std::string line;
  for (const std::string& word : rpc) {
    if (!line.empty()) line += ' ';
    line += word;
  }
  line += '\n';
  if (!send_all(fd, line)) {
    ::close(fd);
    return 1;
  }
  std::string buffer;
  bool done = false;
  bool ok = true;
  while (!done) {
    char chunk[4096];
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "hbgctl: read: %s\n", std::strerror(errno));
      ok = false;
      break;
    }
    if (n == 0) {
      std::fprintf(stderr, "hbgctl: daemon closed the connection mid-response\n");
      ok = false;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    std::size_t nl;
    while ((nl = buffer.find('\n', pos)) != std::string::npos) {
      std::string resp_line = buffer.substr(pos, nl - pos);
      pos = nl + 1;
      if (resp_line == ".") {
        done = true;
        break;
      }
      if (!resp_line.empty() && resp_line[0] == '.') resp_line.erase(0, 1);
      std::printf("%s\n", resp_line.c_str());
    }
    buffer.erase(0, pos);
  }
  ::close(fd);
  return ok ? 0 : 1;
}

// Stream a trace into the daemon's ingest socket. JSONL is forwarded
// verbatim line by line (the daemon parses); a binary archive is decoded
// streaming and each record re-encoded as one JSONL line on the way out.
int cmd_feed(const std::string& socket_path, const std::string& trace_path,
             const RetryOptions& retry) {
  std::size_t sent = 0;
  if (is_trace_archive(trace_path)) {
    TraceArchiveReader reader;
    if (!reader.open(trace_path)) {
      std::fprintf(stderr, "hbgctl: %s\n", reader.error().c_str());
      return 1;
    }
    int fd = connect_unix(socket_path, retry);
    if (fd < 0) return 1;
    bool write_failed = false;
    bool ok = reader.for_each([&](const ArchiveRecord& record) {
      std::string line = to_json_line(record.materialize());
      line += '\n';
      if (!send_all(fd, line)) {
        write_failed = true;
        return false;
      }
      ++sent;
      return true;
    });
    ::close(fd);
    if (!ok || write_failed) {
      if (!ok) std::fprintf(stderr, "hbgctl: %s\n", reader.error().c_str());
      return 1;
    }
    std::printf("fed %zu line(s) from %s into %s\n", sent, trace_path.c_str(),
                socket_path.c_str());
    return 0;
  }
  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "hbgctl: cannot open %s\n", trace_path.c_str());
    return 1;
  }
  int fd = connect_unix(socket_path, retry);
  if (fd < 0) return 1;
  std::string line;
  while (std::getline(in, line)) {
    line += '\n';
    if (!send_all(fd, line)) {
      ::close(fd);
      return 1;
    }
    ++sent;
  }
  ::close(fd);
  std::printf("fed %zu line(s) from %s into %s\n", sent, trace_path.c_str(),
              socket_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // Leading connect-retry flags apply to the live/feed commands only.
  RetryOptions retry;
  while (args.size() >= 2 && (args[0] == "--retry-ms" || args[0] == "--retry-max")) {
    std::optional<std::uint64_t> value = parse_unsigned(args[1]);
    if (args[0] == "--retry-ms") {
      if (!value || *value == 0 || *value > static_cast<std::uint64_t>(kMaxBackoffMs)) {
        return bad_argument("--retry-ms takes an integer in [1, 2000], not '" + args[1] + "'");
      }
      retry.initial_ms = static_cast<long>(*value);
    } else {
      if (!value) {
        return bad_argument("--retry-max takes an unsigned integer, not '" + args[1] + "'");
      }
      retry.max_retries = static_cast<std::size_t>(*value);
    }
    args.erase(args.begin(), args.begin() + 2);
  }
  if (args.empty()) return usage();
  if (args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
    std::fputs(kHelpText, stdout);
    return 0;
  }
  const std::string& command = args[0];

  if (command == "live") {
    if (args.size() < 3) return usage();
    return cmd_live(args[1], std::vector<std::string>(args.begin() + 2, args.end()),
                    retry);
  }
  if (command == "feed") {
    if (args.size() != 3) return usage();
    return cmd_feed(args[1], args[2], retry);
  }

  if (command == "demo") {
    if (args.size() != 2) return usage();
    return cmd_demo(args[1]);
  }
  if (command == "convert") {
    if (args.size() != 3) return usage();
    return cmd_convert(args[1], args[2]);
  }
  if (args.size() < 2) return usage();
  auto records = load(args[1]);
  if (!records.has_value()) return 1;

  if (command == "stats") return cmd_stats(*records);
  if (command == "hbg") {
    bool dot = args.size() > 2 && args[2] == "--dot";
    return cmd_hbg(*records, dot);
  }
  if (command == "why") {
    if (args.size() != 3) return usage();
    std::optional<std::uint64_t> io = parse_unsigned(args[2]);
    if (!io) return bad_argument("why takes a decimal io-id, not '" + args[2] + "'");
    return cmd_why(*records, *io);
  }
  if (command == "verify") {
    std::vector<Prefix> prefixes;
    for (std::size_t i = 2; i < args.size(); ++i) {
      auto prefix = Prefix::parse(args[i]);
      if (!prefix) {
        std::fprintf(stderr, "hbgctl: bad prefix %s\n", args[i].c_str());
        return 2;
      }
      prefixes.push_back(*prefix);
    }
    if (prefixes.empty()) return usage();
    return cmd_verify(*records, prefixes);
  }
  return usage();
}
