// Crash-recovery harness: kill hbguardd at randomized points, restart it,
// re-feed the undelivered tail, and gate that the recovered session is
// byte-identical to one that never crashed.
//
// Three phases:
//   1. Kill matrix — a child daemon (this binary re-exec'd with --serve)
//      ingests a synthesized churn trace while the harness kills it with an
//      external SIGKILL at a random delay or via an in-process crash point
//      (HBGUARD_CRASH_POINT): after the Nth delivery, mid-frame in the WAL
//      writer (a durable torn tail), mid-checkpoint (a torn .tmp), or
//      mid-/post-scan. Double-kill trials crash the *recovery* too. After
//      each death the daemon restarts, reports how many records survived
//      durably, the harness re-feeds the rest, and the final digest must
//      equal ReplayGuardSession::run_offline over the whole trace — the
//      digest embeds every verdict, so parity simultaneously proves zero
//      false verdicts and zero acknowledged-record loss. Any divergence
//      fails the run (non-zero exit).
//   2. WAL overhead — ingest wall-clock with durability off, fsync off
//      (flush-only), group fsync (interval 256), and fsync-every-entry.
//      The gated pair (no WAL, group fsync) alternates within each
//      repetition, and the full run gates the median over repetitions of
//      group fsync's overhead over no-WAL in the same repetition at <= 25%.
//      The two other modes are only reported: each is timed once on a
//      shorter trace, beside one no-WAL ingest of the same records.
//   3. Recovery time vs WAL length — recover_session timed over growing
//      logs, with and without checkpoints every 1000 entries.
//
// Results land in BENCH_crash_recovery.json for CI. `--smoke` shrinks the
// matrix for sanitizer runs.
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <dirent.h>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "hbguard/capture/trace_io.hpp"
#include "hbguard/core/guard_state.hpp"
#include "hbguard/daemon/daemon.hpp"
#include "hbguard/daemon/recovery.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/checkpoint.hpp"
#include "hbguard/util/rng.hpp"

extern char** environ;

namespace hbguard {
namespace {

using bench::fmt;
using bench::JsonWriter;
using bench::Stopwatch;
using bench::Table;

// Shared by the harness and the --serve child: both must derive the exact
// same session fingerprint or recovery will (correctly) refuse the state.
constexpr SimTime kScanEveryUs = 5'000;
constexpr std::size_t kPolicyPrefixes = 4;

PolicyList harness_policies() {
  PolicyList policies;
  for (std::size_t i = 0; i < kPolicyPrefixes; ++i) {
    Prefix p = full_table_prefix(i);
    policies.push_back(std::make_shared<LoopFreedomPolicy>(p));
    policies.push_back(std::make_shared<BlackholeFreedomPolicy>(p));
  }
  return policies;
}

ReplaySessionOptions harness_session_options() {
  ReplaySessionOptions options;
  options.policies = harness_policies();
  options.scan_every_us = kScanEveryUs;
  return options;
}

std::vector<IoRecord> make_trace(std::size_t records_wanted, std::uint64_t seed) {
  FullTableChurnOptions churn;
  churn.prefix_count = 64;
  churn.churn_records = records_wanted;  // + the 64-record initial dump
  churn.router_count = 4;
  churn.session_count = 2;
  churn.seed = seed;
  std::vector<IoRecord> records;
  generate_full_table_churn(churn, [&](const IoRecord& r) { records.push_back(r); });
  if (records.size() > records_wanted) records.resize(records_wanted);
  return records;
}

std::string to_jsonl(const std::vector<IoRecord>& records, std::size_t from,
                     std::size_t to) {
  std::ostringstream out;
  std::vector<IoRecord> slice(records.begin() + from, records.begin() + to);
  write_trace(out, slice);
  return out.str();
}

// ---- Scratch directories --------------------------------------------------

void wipe_dir(const std::string& path) {
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

std::string fresh_dir(const std::string& name) {
  std::string path = "/tmp/hbg-crash-" + std::to_string(::getpid()) + "-" + name;
  wipe_dir(path);
  ::mkdir(path.c_str(), 0700);
  return path;
}

// ---- Loopback client ------------------------------------------------------

int connect_unix_once(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Retry while the daemon is still recovering/binding; give up early when
/// the child is already dead (pid reaped by the caller's alive() probe).
int connect_retry(const std::string& path, int budget_ms,
                  const std::function<bool()>& alive) {
  int waited = 0;
  for (;;) {
    int fd = connect_unix_once(path);
    if (fd >= 0) return fd;
    if (!alive() || waited >= budget_ms) return -1;
    ::usleep(20'000);
    waited += 20;
  }
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE: the child died mid-feed — expected here
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

std::uint64_t status_field(const std::string& status, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  std::size_t pos = status.find(needle);
  if (pos == std::string::npos) return ~0ULL;
  return std::strtoull(status.c_str() + pos + needle.size(), nullptr, 10);
}

// ---- Child process control ------------------------------------------------

struct ChildDaemon {
  pid_t pid = -1;
  int exit_status = 0;
  bool exited = false;

  bool alive() {
    if (pid < 0 || exited) return false;
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      exited = true;
      exit_status = status;
    }
    return !exited;
  }

  /// Wait up to `timeout_ms` for the child to exit on its own.
  bool wait_exit(int timeout_ms) {
    int waited = 0;
    while (alive()) {
      if (waited >= timeout_ms) return false;
      ::usleep(10'000);
      waited += 10;
    }
    return true;
  }

  void kill_now() {
    if (alive()) {
      ::kill(pid, SIGKILL);
      wait_exit(10'000);
    }
  }
};

/// Re-exec this binary as `--serve`; `crash_env` (e.g. "post-deliver:40")
/// goes only into the child's environment.
bool spawn_daemon(const std::string& exe, const std::string& socket_dir,
                  const std::string& state_dir, std::size_t fsync_interval,
                  std::size_t checkpoint_every, const std::string& crash_env,
                  ChildDaemon& child) {
  std::string fsync_arg = std::to_string(fsync_interval);
  std::string ckpt_arg = std::to_string(checkpoint_every);
  std::vector<std::string> args = {exe,       "--serve", socket_dir,
                                   state_dir, fsync_arg, ckpt_arg};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::string crash_var = "HBGUARD_CRASH_POINT=" + crash_env;
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "HBGUARD_CRASH_POINT=", 20) == 0) continue;
    envp.push_back(*e);
  }
  if (!crash_env.empty()) envp.push_back(crash_var.data());
  envp.push_back(nullptr);

  pid_t pid = -1;
  int rc = ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(), envp.data());
  if (rc != 0) {
    std::printf("ERROR: posix_spawn: %s\n", std::strerror(rc));
    return false;
  }
  child = ChildDaemon{};
  child.pid = pid;
  return true;
}

int serve(const std::string& socket_dir, const std::string& state_dir,
          std::size_t fsync_interval, std::size_t checkpoint_every) {
  ::signal(SIGPIPE, SIG_IGN);
  DaemonOptions options;
  options.socket_dir = socket_dir;
  options.state_dir = state_dir;
  options.fsync_interval = fsync_interval;
  options.checkpoint_every = checkpoint_every;
  options.session = harness_session_options();
  GuardDaemon daemon(options);
  if (!daemon.bind()) return 1;
  return daemon.run();
}

// ---- Kill matrix ----------------------------------------------------------

struct TrialSpec {
  std::string kind;        // sigkill | post-deliver | wal-torn | ...
  std::string crash_env;   // first life's HBGUARD_CRASH_POINT ("" = none)
  std::string second_env;  // first *restart*'s crash point (double-kill)
  int kill_after_ms = -1;  // external SIGKILL delay (-1 = crash point only)
  std::size_t checkpoint_every = 0;
};

struct TrialResult {
  std::string kind;
  bool killed = false;     // the first life actually died
  std::size_t restarts = 0;
  std::uint64_t recovered_records = 0;  // durable records after first restart
  bool digest_ok = false;
  bool complete_ok = false;  // every record delivered exactly once in the end
  std::string detail;
};

TrialResult run_trial(const std::string& exe, const std::vector<IoRecord>& trace,
                      const std::string& oracle_digest, const TrialSpec& spec,
                      std::size_t trial_index) {
  TrialResult result;
  result.kind = spec.kind;
  std::string tag = "t" + std::to_string(trial_index);
  std::string socket_dir = fresh_dir(tag + "-sock");
  std::string state_dir = fresh_dir(tag + "-state");

  // First life: feed the whole trace into a daemon armed to die.
  ChildDaemon child;
  if (!spawn_daemon(exe, socket_dir, state_dir, 256, spec.checkpoint_every,
                    spec.crash_env, child)) {
    result.detail = "spawn failed";
    return result;
  }
  {
    int ingest = connect_retry(socket_dir + "/ingest.sock", 10'000,
                               [&] { return child.alive(); });
    if (ingest >= 0) {
      send_all(ingest, to_jsonl(trace, 0, trace.size()));  // EPIPE = it died
      ::close(ingest);
    }
  }
  if (spec.kill_after_ms >= 0) {
    ::usleep(static_cast<useconds_t>(spec.kill_after_ms) * 1000);
    if (child.alive()) ::kill(child.pid, SIGKILL);
  }
  // Crash-point trials whose trigger never fired (e.g. the stream drained
  // first) get the external treatment: SIGKILL at quiescence is still a
  // legitimate cut point.
  if (!child.wait_exit(3'000)) child.kill_now();
  result.killed = true;

  // Restart until a life survives recovery + tail re-feed + digest. The
  // double-kill second_env murders the first restart mid-recovery.
  bool first_restart = true;
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::string env = first_restart ? spec.second_env : "";
    first_restart = false;
    ++result.restarts;
    if (!spawn_daemon(exe, socket_dir, state_dir, 256, spec.checkpoint_every, env,
                      child)) {
      result.detail = "respawn failed";
      return result;
    }
    int control = connect_retry(socket_dir + "/control.sock", 30'000,
                                [&] { return child.alive(); });
    if (control < 0) {
      child.kill_now();  // died during recovery (double-kill) — go again
      continue;
    }
    std::string status = rpc(control, "status");
    std::uint64_t durable = status_field(status, "records_delivered");
    if (durable == ~0ULL || durable > trace.size()) {
      ::close(control);
      child.kill_now();
      result.detail = "bad status: " + chomp(status);
      return result;
    }
    if (result.recovered_records == 0) result.recovered_records = durable;

    int ingest = connect_retry(socket_dir + "/ingest.sock", 5'000,
                               [&] { return child.alive(); });
    if (ingest >= 0) {
      send_all(ingest, to_jsonl(trace, durable, trace.size()));
      ::close(ingest);
    }
    // Wait for the tail to actually deliver before taking the digest: the
    // daemon cannot know about a not-yet-accepted ingest connection, so an
    // immediate `digest` could legally finish the session over the prefix.
    for (int waited = 0; waited < 30'000 && child.alive(); waited += 5) {
      if (status_field(rpc(control, "status"), "records_delivered") ==
          trace.size()) {
        break;
      }
      ::usleep(5'000);
    }
    std::string digest = chomp(rpc(control, "digest"));  // drain + tail scan
    std::string final_status = rpc(control, "status");
    if (digest.empty() || !child.alive()) {  // crashed mid-re-feed — go again
      ::close(control);
      child.kill_now();
      continue;
    }
    result.digest_ok = digest == oracle_digest;
    result.complete_ok =
        status_field(final_status, "records_delivered") == trace.size();
    if (!result.digest_ok) result.detail = "digest mismatch";
    if (!result.complete_ok) {
      result.detail += std::string(result.detail.empty() ? "" : "; ") +
                       "delivered " +
                       std::to_string(status_field(final_status, "records_delivered")) +
                       "/" + std::to_string(trace.size());
    }
    rpc(control, "shutdown");
    ::close(control);
    child.wait_exit(10'000);
    child.kill_now();
    wipe_dir(socket_dir);
    wipe_dir(state_dir);
    return result;
  }
  child.kill_now();
  result.detail = "no restart survived";
  wipe_dir(socket_dir);
  wipe_dir(state_dir);
  return result;
}

std::vector<TrialSpec> make_trial_specs(std::size_t count, Rng& rng) {
  std::vector<TrialSpec> specs;
  while (specs.size() < count) {
    std::size_t which = specs.size() % 7;
    TrialSpec spec;
    switch (which) {
      case 0:
        spec.kind = "sigkill";
        spec.kill_after_ms = static_cast<int>(rng.uniform_int(1, 40));
        break;
      case 1:
        spec.kind = "post-deliver";
        spec.crash_env =
            "post-deliver:" + std::to_string(rng.uniform_int(1, 700));
        break;
      case 2:
        spec.kind = "wal-torn";
        spec.crash_env = "wal-torn:" + std::to_string(rng.uniform_int(1, 12));
        break;
      case 3:
        spec.kind = "checkpoint-torn";
        spec.crash_env = "checkpoint-torn:1";
        spec.checkpoint_every = 64;  // make sure checkpoints actually happen
        break;
      case 4:
        spec.kind = "mid-scan";
        spec.crash_env = "mid-scan:" + std::to_string(rng.uniform_int(1, 12));
        break;
      case 5:
        spec.kind = "post-scan";
        spec.crash_env = "post-scan:" + std::to_string(rng.uniform_int(1, 12));
        break;
      case 6:
        spec.kind = "double-kill";
        spec.crash_env = "post-deliver:" + std::to_string(rng.uniform_int(50, 600));
        spec.second_env = "post-deliver:" + std::to_string(rng.uniform_int(1, 40));
        spec.checkpoint_every = 128;
        break;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

// ---- WAL overhead ---------------------------------------------------------

/// Wall-clock seconds to stream `jsonl` through an in-process daemon and
/// drain it (digest barrier) under the given durability configuration.
double time_ingest(const std::string& jsonl, std::size_t record_count,
                   const std::string& state_dir, std::size_t fsync_interval) {
  DaemonOptions options;
  options.socket_dir = fresh_dir("ovh-sock");
  options.state_dir = state_dir;  // empty = durability off
  options.fsync_interval = fsync_interval;
  options.checkpoint_every = 0;
  options.session = harness_session_options();
  GuardDaemon daemon(options);
  if (!daemon.bind()) return -1.0;
  std::thread server([&daemon] { daemon.run(); });
  Stopwatch timer;
  int ingest = connect_unix_once(daemon.ingest_socket_path());
  if (ingest >= 0) {
    send_all(ingest, jsonl);
    ::close(ingest);
  }
  int control = connect_unix_once(daemon.control_socket_path());
  double seconds = -1.0;
  if (control >= 0) {
    std::string status = rpc(control, "digest");
    seconds = timer.ms() / 1000.0;
    if (status.empty()) seconds = -1.0;
    rpc(control, "shutdown");
    ::close(control);
  } else {
    daemon.stop();
  }
  server.join();
  if (daemon.session().records_delivered() != record_count) seconds = -1.0;
  wipe_dir(options.socket_dir);
  return seconds;
}

// ---- Recovery-time curve --------------------------------------------------

struct CurvePoint {
  std::size_t wal_entries = 0;
  bool checkpointed = false;
  double seconds = 0.0;
  std::uint64_t fast_forwarded = 0;
  std::uint64_t replayed = 0;
};

/// Build a state dir holding `slice` in the WAL — and, if `checkpoint_every`
/// > 0, checkpoints at those boundaries exactly as a live daemon would have
/// written them (exported from a session running the canonical loop).
void build_state_dir(const std::string& dir, const std::vector<IoRecord>& records,
                     std::size_t count, const ReplaySessionOptions& options,
                     std::size_t checkpoint_every) {
  GuardWal wal;
  WalOptions wal_options;
  wal_options.fsync_interval = 0;
  std::string error;
  if (!wal.open(dir, 1, 0, session_fingerprint(options), wal_options, &error)) {
    std::printf("ERROR: %s\n", error.c_str());
    return;
  }
  ReplayGuardSession session(options);
  std::uint64_t generation = 1;
  for (std::size_t i = 0; i < count; ++i) {
    wal.append_record(records[i]);
    while (session.scan_due_before(records[i])) session.run_one_due_scan();
    session.deliver(records[i]);
    while (session.scan_due_now()) session.run_one_due_scan();
    if (checkpoint_every > 0 && (i + 1) % checkpoint_every == 0) {
      Checkpoint checkpoint;
      checkpoint.generation = generation++;
      checkpoint.lsn = i + 1;
      checkpoint.fingerprint = session_fingerprint(options);
      encode_guard_state(session.guard().export_state(), checkpoint.payload);
      if (!write_checkpoint(dir, checkpoint, &error)) {
        std::printf("ERROR: %s\n", error.c_str());
      }
    }
  }
  wal.sync();
}

// ---------------------------------------------------------------------------

int run_harness(const std::string& exe, bool smoke) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::uint64_t kSeed = 20170814;
  bench::header(
      "bench_crash_recovery: kill-injection durability harness" +
          std::string(smoke ? " (smoke)" : ""),
      "robustness PR: durable WAL + checkpointed recovery (HotNets'17 control "
      "plane as a crash-safe service)",
      "every kill point recovers to the exact no-crash digest; group-fsync "
      "WAL costs <= 25% ingest throughput",
      kSeed);

  ReplaySessionOptions session_options = harness_session_options();
  Rng rng(kSeed);
  bool all_ok = true;

  // -- Phase 1: kill matrix --
  const std::size_t trial_count = smoke ? 8 : 56;
  std::vector<IoRecord> trace = make_trace(smoke ? 300 : 700, kSeed);
  std::string oracle =
      chomp(ReplayGuardSession::run_offline(trace, session_options).digest());
  std::vector<TrialSpec> specs = make_trial_specs(trial_count, rng);

  std::printf("kill matrix: %zu trials over a %zu-record churn trace\n\n",
              specs.size(), trace.size());
  Table matrix({"trial", "kind", "recovered", "restarts", "digest", "complete"});
  std::size_t passed = 0;
  std::vector<std::string> failures;
  std::vector<TrialResult> results;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    TrialResult r = run_trial(exe, trace, oracle, specs[i], i);
    bool ok = r.killed && r.digest_ok && r.complete_ok;
    if (ok) {
      ++passed;
    } else {
      failures.push_back("trial " + std::to_string(i) + " (" + r.kind +
                         "): " + (r.detail.empty() ? "failed" : r.detail));
    }
    matrix.row({std::to_string(i), r.kind, std::to_string(r.recovered_records),
                std::to_string(r.restarts), r.digest_ok ? "ok" : "FAIL",
                r.complete_ok ? "ok" : "FAIL"});
    results.push_back(std::move(r));
  }
  matrix.print();
  std::printf("kill matrix: %zu/%zu trials recovered byte-identically\n\n", passed,
              specs.size());
  for (const std::string& f : failures) std::printf("FAIL: %s\n", f.c_str());
  if (passed != specs.size()) all_ok = false;

  // -- Phase 2: WAL overhead --
  // The full run's trace takes over 100 ms per no-WAL ingest, so timer
  // and scheduling noise stay small against it. Each repetition runs the
  // gated pair (no-WAL, fsync-256) back to back, the first side swapping
  // every repetition, so a host slowing down for a while slows both sides
  // alike; the gate takes the median of the pair's per-repetition
  // overheads. The ungated modes run once each after all the pairs, on the
  // trace's first 2,000 records and after one no-WAL ingest of those
  // records, their baseline: fsync-1's writeback would slow whichever
  // ingest follows it, and over the whole trace it would issue 32,000
  // fdatasyncs.
  const std::size_t overhead_records = smoke ? 400 : 32'000;
  const std::size_t reported_records = smoke ? 400 : 2'000;
  const int overhead_reps = smoke ? 1 : 11;
  std::vector<IoRecord> overhead_trace = make_trace(overhead_records, kSeed + 1);

  struct OverheadMode {
    std::string name;
    bool durable;
    std::size_t fsync_interval;
    std::size_t records;
    std::vector<double> samples;  // seconds, one per repetition
    double seconds = 0.0;          // their median
  };
  // Each no-WAL row is the baseline of the rows after it.
  std::vector<OverheadMode> modes = {{"no-wal", false, 0, overhead_records, {}},
                                     {"fsync-256", true, 256, overhead_records, {}},
                                     {"no-wal", false, 0, reported_records, {}},
                                     {"fsync-off", true, 0, reported_records, {}},
                                     {"fsync-1", true, 1, reported_records, {}}};
  const std::string overhead_jsonl = to_jsonl(overhead_trace, 0, overhead_records);
  const std::string reported_jsonl = to_jsonl(overhead_trace, 0, reported_records);
  auto median = [](std::vector<double> values) {
    if (values.empty()) return -1.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
  };
  auto time_mode = [&](OverheadMode& mode) {
    std::string state = mode.durable ? fresh_dir("ovh-state") : "";
    double seconds =
        time_ingest(mode.records == overhead_records ? overhead_jsonl : reported_jsonl,
                    mode.records, state, mode.fsync_interval);
    if (!state.empty()) wipe_dir(state);
    if (seconds < 0) {
      all_ok = false;
    } else {
      mode.samples.push_back(seconds);
    }
    return seconds;
  };
  std::vector<double> batched_overheads;
  for (int rep = 0; rep < overhead_reps; ++rep) {
    bool wal_first = rep % 2 == 1;
    double batched = wal_first ? time_mode(modes[1]) : -1.0;
    double plain = time_mode(modes[0]);
    if (!wal_first) batched = time_mode(modes[1]);
    if (plain > 0 && batched > 0) batched_overheads.push_back((batched - plain) / plain);
  }
  for (std::size_t i = 2; i < modes.size(); ++i) time_mode(modes[i]);
  for (OverheadMode& mode : modes) mode.seconds = median(mode.samples);
  double batched_overhead =
      batched_overheads.empty() ? -1.0 : median(batched_overheads);
  Table overhead({"mode", "records", "seconds", "krec/s", "overhead"});
  const OverheadMode* baseline = nullptr;
  for (const OverheadMode& mode : modes) {
    if (!mode.durable) baseline = &mode;
    double rate =
        mode.seconds > 0 ? static_cast<double>(mode.records) / mode.seconds / 1000.0 : 0.0;
    double over =
        baseline->seconds > 0 ? (mode.seconds - baseline->seconds) / baseline->seconds : 0.0;
    overhead.row({mode.name, std::to_string(mode.records), fmt(mode.seconds, 4), fmt(rate, 1),
                  bench::fmt_pct(over)});
  }
  overhead.print();
  std::printf("fsync-256 overhead over no-WAL, median of %zu alternating repetitions "
              "(%zu records each): %s\n\n",
              batched_overheads.size(), overhead_trace.size(),
              bench::fmt_pct(batched_overhead).c_str());
  // The 25% gate applies to group fsync (the shipping default) in the full
  // run only — sanitizer smoke builds distort relative cost too much — and
  // only where the background syncer can actually overlap with ingest: on a
  // single-hardware-thread host the fdatasync writeback serializes into the
  // ingest path by construction, so the number measures the disk, not the
  // group-commit design (same hedge as bench_distributed_verify's speedup
  // gate).
  bool gate_overhead = !smoke && std::thread::hardware_concurrency() >= 2;
  if (gate_overhead && (batched_overhead < 0 || batched_overhead > 0.25)) {
    std::printf("FAIL: fsync-256 ingest overhead %s exceeds the 25%% budget\n",
                bench::fmt_pct(batched_overhead).c_str());
    all_ok = false;
  } else if (!gate_overhead && !smoke) {
    std::printf("note: overhead gate skipped (1 hardware thread: writeback "
                "cannot overlap ingest)\n");
  }

  // -- Phase 3: recovery time vs WAL length --
  std::vector<std::size_t> lengths =
      smoke ? std::vector<std::size_t>{500, 1'000}
            : std::vector<std::size_t>{1'000, 2'000, 4'000, 8'000};
  std::vector<IoRecord> long_trace = make_trace(lengths.back(), kSeed + 2);
  std::vector<CurvePoint> curve;
  Table recovery({"wal entries", "checkpoints", "recovery s", "fast-fwd", "replayed"});
  for (std::size_t length : lengths) {
    for (std::size_t checkpoint_every : {std::size_t{0}, std::size_t{1'000}}) {
      std::string dir = fresh_dir("curve");
      build_state_dir(dir, long_trace, length, session_options, checkpoint_every);
      RecoveryResult recovered = recover_session(dir, session_options);
      CurvePoint point;
      point.wal_entries = length;
      point.checkpointed = checkpoint_every > 0;
      if (!recovered.ok) {
        std::printf("FAIL: recovery at L=%zu: %s\n", length, recovered.error.c_str());
        all_ok = false;
      } else {
        point.seconds = recovered.seconds;
        point.fast_forwarded = recovered.fast_forwarded_entries;
        point.replayed = recovered.replayed_entries;
        if (recovered.session->records_delivered() != length) {
          std::printf("FAIL: recovery at L=%zu delivered %zu records\n", length,
                      recovered.session->records_delivered());
          all_ok = false;
        }
      }
      recovery.row({std::to_string(length),
                    checkpoint_every > 0 ? "every 1000" : "none",
                    fmt(point.seconds, 4), std::to_string(point.fast_forwarded),
                    std::to_string(point.replayed)});
      curve.push_back(point);
      wipe_dir(dir);
    }
  }
  recovery.print();

  // -- Artifact --
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("crash_recovery");
  json.key("smoke").value(smoke);
  json.key("kill_matrix").begin_object();
  json.key("trials").value(specs.size());
  json.key("passed").value(passed);
  json.key("trace_records").value(trace.size());
  json.key("results").begin_array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrialResult& r = results[i];
    json.begin_object();
    json.key("trial").value(i);
    json.key("kind").value(r.kind);
    json.key("recovered_records").value(r.recovered_records);
    json.key("restarts").value(r.restarts);
    json.key("digest_ok").value(r.digest_ok);
    json.key("complete_ok").value(r.complete_ok);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("overhead").begin_object();
  json.key("records").value(overhead_trace.size());
  json.key("repetitions").value(overhead_reps);
  json.key("gated").value(gate_overhead);
  json.key("budget_pct").value(25);
  json.key("fsync256_overhead").value(batched_overhead);
  json.key("modes").begin_array();
  for (const OverheadMode& mode : modes) {
    json.begin_object();
    json.key("name").value(mode.name);
    json.key("records").value(mode.records);
    json.key("seconds").value(mode.seconds);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("recovery_curve").begin_array();
  for (const CurvePoint& point : curve) {
    json.begin_object();
    json.key("wal_entries").value(point.wal_entries);
    json.key("checkpointed").value(point.checkpointed);
    json.key("seconds").value(point.seconds);
    json.key("fast_forwarded").value(point.fast_forwarded);
    json.key("replayed").value(point.replayed);
    json.end_object();
  }
  json.end_array();
  json.key("pass").value(all_ok);
  json.end_object();
  json.write("BENCH_crash_recovery.json");
  std::printf("wrote BENCH_crash_recovery.json\n");
  std::printf("%s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace hbguard

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 5 && args[0] == "--serve") {
    return hbguard::serve(args[1], args[2],
                          std::strtoull(args[3].c_str(), nullptr, 10),
                          std::strtoull(args[4].c_str(), nullptr, 10));
  }
  bool smoke = !args.empty() && args[0] == "--smoke";
  char exe[4096];
  ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) {
    std::printf("ERROR: readlink(/proc/self/exe) failed\n");
    return 1;
  }
  exe[n] = '\0';
  return hbguard::run_harness(exe, smoke);
}
