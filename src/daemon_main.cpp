// hbguardd — long-running guard daemon over Unix-domain sockets.
//
// `hbguardd --help` lists the modes and options (README.md embeds the same
// text). A malformed or out-of-range flag value prints that text to stderr
// and exits 2 before anything is bound or started.
//
// Signals: SIGTERM/SIGINT exit cleanly through a final checkpoint + WAL
// sync; SIGHUP forces an immediate checkpoint + WAL rotation.
#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hbguard/capture/trace_io.hpp"
#include "hbguard/daemon/daemon.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/util/logging.hpp"
#include "hbguard/util/strings.hpp"

using namespace hbguard;

namespace {

// Keep this text in sync with README.md: CI diffs `hbguardd --help`
// against the block between the hbguardd-help markers there.
constexpr const char* kHelpText =
    "usage: hbguardd [options]          serve until a `shutdown` RPC\n"
    "       hbguardd --smoke            self-test: stream the Fig. 2 trace through\n"
    "                                   the ingest socket, check digest parity with\n"
    "                                   the synchronous pass and a clean shutdown\n"
    "       hbguardd --soak <records>   self-benchmark: stream a generated churn\n"
    "                                   trace, report ingest rate and scan cadence\n"
    "options:\n"
    "  --dir <path>             socket directory (default /tmp/hbguardd)\n"
    "  --prefix <cidr>          policy prefix (repeatable): loop + blackhole\n"
    "                           freedom per prefix\n"
    "  --cadence-us <n>         virtual-time scan cadence (default 100000; 0 = off)\n"
    "  --on-delta <n>           also scan every <n> ingested records (default off)\n"
    "  --threads <n>            guard worker threads, at most 256 (default 1;\n"
    "                           0 = one per hardware thread)\n"
    "  --mode report|propose    default propose: repairs queue for\n"
    "                           `hbgctl live ... repairs approve`\n"
    "  --state-dir <path>       durable WAL + checkpoints here; a restart recovers\n"
    "                           the session byte-identically (default off)\n"
    "  --fsync-interval <n>     WAL entries per group fdatasync (default 256;\n"
    "                           0 = flush only)\n"
    "  --checkpoint-every <n>   checkpoint + WAL rotation every <n> WAL entries\n"
    "                           (default 20000; 0 = only at shutdown/SIGHUP)\n"
    "  --no-recover             discard any durable state in --state-dir\n"
    "  --coverage-target <f>    stop each scan once this fraction (0 < f <= 1) of\n"
    "                           the destination traffic weight is covered\n"
    "                           (enables traffic-weighted scheduling)\n"
    "  --scan-budget <n>        cap on destinations verified per scan (enables\n"
    "                           scheduling; 0 = uncapped)\n"
    "  --aging-scans <n>        scans a deferred destination may wait before it\n"
    "                           jumps the weight order (default 16)\n"
    "  --help                   print this text\n";

/// Most guard worker threads --threads accepts.
constexpr std::uint64_t kMaxThreads = 256;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "hbguardd: %s\n", message.c_str());
  std::fputs(kHelpText, stderr);
  std::exit(2);
}

GuardDaemon* g_daemon = nullptr;

void handle_exit_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();  // async-signal-safe: atomic + pipe write
}

void handle_sighup(int) {
  if (g_daemon != nullptr) g_daemon->request_checkpoint();
}

// ---- Minimal blocking Unix-socket client (smoke/soak self-drive) ----------

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

/// One RPC round-trip: send `command`, collect the "." framed response.
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
      if (!line.empty() && line[0] == '.') line.erase(0, 1);  // un-dot-stuff
      body += line;
      body += '\n';
    }
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return body;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Strip trailing newlines before comparing RPC bodies with library output
/// (the line framing normalizes the final newline).
std::string chomp(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

std::string to_jsonl(const std::vector<IoRecord>& records) {
  std::ostringstream out;
  write_trace(out, records);
  return out.str();
}

struct SelfDrive {
  DaemonOptions options;
  std::vector<IoRecord> trace;
};

/// Serve `drive.options` on a background thread, stream `drive.trace`
/// through the ingest socket, and return the daemon's digest RPC response
/// (empty on transport failure). `status_out`/`shutdown_ok` report the rest
/// of the conversation.
std::string stream_through_daemon(const SelfDrive& drive, std::string* status_out,
                                  bool* shutdown_ok, double* ingest_seconds) {
  GuardDaemon daemon(drive.options);
  if (!daemon.bind()) return {};
  std::thread server([&daemon] { daemon.run(); });

  std::string digest;
  int ingest = connect_unix(daemon.ingest_socket_path());
  if (ingest >= 0) {
    auto start = std::chrono::steady_clock::now();
    send_all(ingest, to_jsonl(drive.trace));
    ::close(ingest);  // EOF: the daemon drains the inbox
    int control = connect_unix(daemon.control_socket_path());
    if (control >= 0) {
      digest = rpc(control, "digest");  // waits for ingest quiescence
      if (ingest_seconds != nullptr) {
        *ingest_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                              .count();
      }
      if (status_out != nullptr) *status_out = rpc(control, "status");
      std::string bye = rpc(control, "shutdown");
      if (shutdown_ok != nullptr) *shutdown_ok = bye.rfind("ok", 0) == 0;
      ::close(control);
    }
  }
  server.join();
  return digest;
}

int run_smoke(DaemonOptions options) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  options.socket_dir = "/tmp/hbguardd-smoke-" + std::to_string(::getpid());
  options.session.policies.clear();
  options.session.policies.push_back(std::make_shared<LoopFreedomPolicy>(scenario.prefix_p));
  options.session.policies.push_back(
      std::make_shared<BlackholeFreedomPolicy>(scenario.prefix_p));

  SelfDrive drive{options, scenario.network->capture().records()};
  GuardReport offline = ReplayGuardSession::run_offline(drive.trace, options.session);

  std::string status;
  bool shutdown_ok = false;
  std::string digest = stream_through_daemon(drive, &status, &shutdown_ok, nullptr);

  bool parity = !digest.empty() && chomp(digest) == chomp(offline.digest());
  bool clean_scan = offline.clean_scans >= 1;  // digest parity => daemon saw the same
  std::printf("hbguardd --smoke: %zu records, %zu scans (%zu clean), %zu incident(s)\n",
              drive.trace.size(), offline.scans, offline.clean_scans,
              offline.incidents.size());
  std::printf("  digest parity (socket vs synchronous): %s\n", parity ? "OK" : "MISMATCH");
  std::printf("  >=1 clean scan: %s\n", clean_scan ? "OK" : "FAIL");
  std::printf("  clean shutdown: %s\n", shutdown_ok ? "OK" : "FAIL");
  if (!status.empty()) std::printf("  status: %s", status.c_str());
  return parity && clean_scan && shutdown_ok ? 0 : 1;
}

int run_soak(DaemonOptions options, std::size_t target_records) {
  // Generate churn until the capture holds ~target_records.
  Rng topo_rng(97);
  NetworkOptions net_options;
  net_options.seed = 97;
  auto generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, net_options);
  generated.network->run_to_convergence();
  ChurnOptions churn_options;
  churn_options.prefix_count = 4;
  churn_options.seed = 98;
  churn_options.event_count = 64;
  std::size_t rounds = 0;
  while (generated.network->capture().records().size() < target_records && rounds < 64) {
    churn_options.seed = 98 + rounds;
    ChurnWorkload churn(generated, churn_options);
    generated.network->run_to_convergence();
    ++rounds;
  }
  const std::vector<IoRecord>& trace = generated.network->capture().records();

  options.socket_dir = "/tmp/hbguardd-soak-" + std::to_string(::getpid());
  options.session.policies.clear();
  for (std::size_t i = 0; i < churn_options.prefix_count; ++i) {
    Prefix p = churn_prefix(i);
    options.session.policies.push_back(std::make_shared<LoopFreedomPolicy>(p));
    options.session.policies.push_back(std::make_shared<BlackholeFreedomPolicy>(p));
  }

  SelfDrive drive{options, trace};
  std::string status;
  bool shutdown_ok = false;
  double seconds = 0;
  std::string digest = stream_through_daemon(drive, &status, &shutdown_ok, &seconds);
  if (digest.empty() || !shutdown_ok) {
    std::fprintf(stderr, "hbguardd --soak: transport failure\n");
    return 1;
  }

  GuardReport offline = ReplayGuardSession::run_offline(trace, options.session);
  bool parity = chomp(digest) == chomp(offline.digest());
  double rate = seconds > 0 ? static_cast<double>(trace.size()) / seconds : 0;
  std::printf("hbguardd --soak: %zu records in %.3fs end-to-end (%.0f records/s)\n",
              trace.size(), seconds, rate);
  std::printf("  scans: %zu (%zu clean, %zu incidents), cadence %lldus, on-delta %zu\n",
              offline.scans, offline.clean_scans, offline.incidents.size(),
              static_cast<long long>(options.session.scan_every_us),
              options.session.scan_delta_threshold);
  std::printf("  per-scan wall budget: %.2fms (end-to-end / scans)\n",
              offline.scans > 0 ? 1000.0 * seconds / static_cast<double>(offline.scans) : 0.0);
  std::printf("  digest parity under load: %s\n", parity ? "OK" : "MISMATCH");
  if (!status.empty()) std::printf("  status: %s", status.c_str());
  return parity ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions options;
  options.session.guard.repair = RepairMode::kProposeOnly;
  options.session.guard.num_threads = 1;
  options.session.guard.compact_budget = 512;

  bool smoke = false;
  std::optional<std::size_t> soak;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage_error(flag + " needs a value");
      return args[++i];
    };
    // A numeric flag's value: whole decimal digits, in [0, max].
    auto number = [&](std::uint64_t max) -> std::uint64_t {
      const std::string& text = next();
      std::optional<std::uint64_t> value = parse_unsigned(text);
      if (!value || *value > max) {
        usage_error(flag + " takes an integer in [0, " + std::to_string(max) + "], not '" +
                    text + "'");
      }
      return *value;
    };
    constexpr std::uint64_t kSizeMax = std::numeric_limits<std::size_t>::max();
    if (flag == "--help" || flag == "-h") {
      std::fputs(kHelpText, stdout);
      return 0;
    } else if (flag == "--dir") {
      options.socket_dir = next();
    } else if (flag == "--prefix") {
      const std::string& text = next();
      auto prefix = Prefix::parse(text);
      if (!prefix) usage_error("--prefix takes a CIDR prefix, not '" + text + "'");
      options.session.policies.push_back(std::make_shared<LoopFreedomPolicy>(*prefix));
      options.session.policies.push_back(std::make_shared<BlackholeFreedomPolicy>(*prefix));
    } else if (flag == "--cadence-us") {
      options.session.scan_every_us =
          static_cast<SimTime>(number(std::numeric_limits<SimTime>::max()));
    } else if (flag == "--on-delta") {
      options.session.scan_delta_threshold = number(kSizeMax);
    } else if (flag == "--threads") {
      options.session.guard.num_threads = static_cast<unsigned>(number(kMaxThreads));
    } else if (flag == "--mode") {
      const std::string& mode = next();
      if (mode == "report") {
        options.session.guard.repair = RepairMode::kReport;
      } else if (mode == "propose") {
        options.session.guard.repair = RepairMode::kProposeOnly;
      } else {
        usage_error("--mode takes report or propose, not '" + mode + "'");
      }
    } else if (flag == "--state-dir") {
      options.state_dir = next();
    } else if (flag == "--fsync-interval") {
      options.fsync_interval = number(kSizeMax);
    } else if (flag == "--checkpoint-every") {
      options.checkpoint_every = number(kSizeMax);
    } else if (flag == "--no-recover") {
      options.recover = false;
    } else if (flag == "--coverage-target") {
      const std::string& text = next();
      std::optional<double> target = parse_fraction(text);
      if (!target) usage_error("--coverage-target takes a fraction in (0, 1], not '" + text + "'");
      options.session.guard.traffic.enabled = true;
      options.session.guard.traffic.coverage_target = *target;
    } else if (flag == "--scan-budget") {
      options.session.guard.traffic.enabled = true;
      options.session.guard.traffic.max_items = number(kSizeMax);
    } else if (flag == "--aging-scans") {
      options.session.guard.traffic.aging_scans = number(kSizeMax);
    } else if (flag == "--smoke") {
      smoke = true;
    } else if (flag == "--soak") {
      soak = number(kSizeMax);
    } else {
      usage_error("unknown option '" + flag + "'");
    }
  }

  if (smoke) return run_smoke(options);
  if (soak) return run_soak(options, *soak);

  if (options.session.policies.empty()) {
    std::fprintf(stderr,
                 "hbguardd: no --prefix given; scans will verify an empty policy list\n");
  }
  GuardDaemon daemon(options);
  g_daemon = &daemon;
  struct sigaction action{};
  action.sa_handler = handle_exit_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  action.sa_handler = handle_sighup;
  ::sigaction(SIGHUP, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon
  if (!daemon.bind()) return 1;
  std::printf("hbguardd: ingest %s control %s\n", daemon.ingest_socket_path().c_str(),
              daemon.control_socket_path().c_str());
  int code = daemon.run();
  g_daemon = nullptr;
  return code;
}
