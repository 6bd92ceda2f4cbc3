// A6 — internet-scale ingestion: full-table BGP churn through the binary
// trace-archive codec vs JSONL, and batch equivalence classes vs table size.
//
// The paper's control-plane guard is only deployable at internet scale if
// trace ingest keeps up with full-table churn (~10^6 prefixes). This bench
// generates a full-table churn trace (Zipf prefix popularity, bursty update
// trains, session resets), writes it through both codecs, and measures:
//   * ingest throughput — JSONL stream parse vs mmap'd binary decode;
//   * equivalence-class cost vs table size — compute_equivalence_classes
//     over one table per size;
// and enforces two gates (exit 1 on either failure):
//   * throughput — the binary archive must ingest >= 5x faster than JSONL;
//   * cross-codec equality — a field digest over every record must match
//     between the two codecs exactly.
// Writes BENCH_internet_scale.json. `--smoke` shrinks the trace for CI.
#include "bench_util.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "hbguard/capture/trace_archive.hpp"
#include "hbguard/capture/trace_io.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/snapshot.hpp"
#include "hbguard/util/thread_pool.hpp"
#include "hbguard/verify/eqclass.hpp"

using namespace hbguard;
using namespace hbguard::bench;

namespace {

// FNV-1a over the fields both codecs must deliver identically. Computed
// from views on the binary side and owning records on the JSONL side, so a
// matching digest proves the codecs agree byte-for-byte on every field
// that reaches the analysis pipeline.
struct Digest {
  std::uint64_t hash = 1469598103934665603ull;

  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (i * 8)) & 0xFF;
      hash *= 1099511628211ull;
    }
  }
  void mix(std::string_view text) {
    mix(text.size());
    for (char c : text) {
      hash ^= static_cast<std::uint8_t>(c);
      hash *= 1099511628211ull;
    }
  }
  void mix_record(const ArchiveRecord& r) {
    mix(r.id);
    mix(r.router);
    mix(static_cast<std::uint64_t>(r.kind));
    mix(static_cast<std::uint64_t>(r.logged_time));
    mix(r.router_seq);
    mix(r.prefix ? (static_cast<std::uint64_t>(r.prefix->address().bits()) << 8) |
                       r.prefix->length()
                 : ~0ull);
    mix(r.session);
    mix(r.withdraw ? 1 : 0);
    mix(r.fib_reset ? 1 : 0);
    if (r.has_fib_entry) {
      mix(static_cast<std::uint64_t>(r.fib_entry.action));
      mix((static_cast<std::uint64_t>(r.fib_entry.prefix.address().bits()) << 8) |
          r.fib_entry.prefix.length());
      mix(r.fib_entry.next_hop);
      mix(r.fib_entry.external_session);
    } else {
      mix(~1ull);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  FullTableChurnOptions churn;
  if (smoke) {
    churn.prefix_count = 1u << 15;   // 32K prefixes
    churn.churn_records = 30'000;
    churn.router_count = 8;
  } else {
    churn.prefix_count = 1u << 20;   // full table
    churn.churn_records = 500'000;
    churn.router_count = 16;
  }

  header("bench_internet_scale",
         "internet-scale ingestion — binary trace archives + equivalence classes",
         "binary ingest >= 5x JSONL; both codecs decode identical records; "
         "equivalence-class cost as the table grows",
         /*seed=*/churn.seed);
  std::printf("mode: %s (%zu prefixes, %zu churn records, %zu routers)\n\n",
              smoke ? "smoke" : "full", churn.prefix_count, churn.churn_records,
              churn.router_count);

  const std::string jsonl_path = "internet_scale_trace.jsonl";
  const std::string archive_path = "internet_scale_trace.hbgtrc";
  int exit_code = 0;

  // ---- generate once, write through both codecs ---------------------------
  FullTableChurnStats gen_stats;
  double generate_ms;
  {
    std::ofstream jsonl(jsonl_path);
    std::ofstream binary(archive_path, std::ios::binary);
    TraceArchiveWriter writer(binary);
    Stopwatch watch;
    gen_stats = generate_full_table_churn(churn, [&](const IoRecord& record) {
      jsonl << to_json_line(record) << '\n';
      writer.add(record);
    });
    writer.finish();
    generate_ms = watch.ms();
  }
  auto file_bytes = [](const std::string& path) -> std::uint64_t {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
  };
  const std::uint64_t jsonl_bytes = file_bytes(jsonl_path);
  const std::uint64_t archive_bytes = file_bytes(archive_path);
  std::printf("generated %llu records in %.0f ms (%llu installs, %llu withdraws, "
              "%llu bursts, %llu session resets)\n",
              static_cast<unsigned long long>(gen_stats.records), generate_ms,
              static_cast<unsigned long long>(gen_stats.installs),
              static_cast<unsigned long long>(gen_stats.withdraws),
              static_cast<unsigned long long>(gen_stats.bursts),
              static_cast<unsigned long long>(gen_stats.session_resets));
  std::printf("jsonl: %.1f MB   archive: %.1f MB (%.2fx smaller)\n\n",
              jsonl_bytes / 1e6, archive_bytes / 1e6,
              archive_bytes > 0 ? static_cast<double>(jsonl_bytes) / archive_bytes : 0.0);

  // ---- ingest throughput --------------------------------------------------
  Digest jsonl_digest;
  std::uint64_t jsonl_records = 0;
  double jsonl_ms;
  {
    std::ifstream in(jsonl_path);
    Stopwatch watch;
    bool ok = stream_trace(in, [&](IoRecord&& record) {
      ++jsonl_records;
      jsonl_digest.mix_record(ArchiveRecord::view_of(record));
      return true;
    });
    jsonl_ms = watch.ms();
    if (!ok) {
      std::printf("GATE FAILED: JSONL ingest reported parse errors\n");
      exit_code = 1;
    }
  }

  Digest archive_digest;
  std::uint64_t archive_records = 0;
  double archive_ms;
  bool reader_mapped = false;
  {
    TraceArchiveReader reader;
    Stopwatch watch;
    if (!reader.open(archive_path) || !reader.for_each([&](const ArchiveRecord& record) {
          ++archive_records;
          archive_digest.mix_record(record);
          return true;
        })) {
      std::printf("GATE FAILED: archive ingest: %s\n", reader.error().c_str());
      exit_code = 1;
    }
    archive_ms = watch.ms();
    reader_mapped = reader.mapped();
  }

  auto rps = [](std::uint64_t records, double ms) {
    return ms > 0 ? static_cast<double>(records) / (ms / 1000.0) : 0.0;
  };
  const double jsonl_rps = rps(jsonl_records, jsonl_ms);
  const double archive_rps = rps(archive_records, archive_ms);
  const double speedup = jsonl_rps > 0 ? archive_rps / jsonl_rps : 0.0;

  Table ingest({"codec", "records", "time", "records/sec", "notes"});
  ingest.row({"jsonl (stream_trace)", std::to_string(jsonl_records), fmt(jsonl_ms, 0) + " ms",
              fmt(jsonl_rps, 0), "text parse, line by line"});
  ingest.row({"archive (for_each)", std::to_string(archive_records),
              fmt(archive_ms, 0) + " ms", fmt(archive_rps, 0),
              reader_mapped ? "mmap, zero-copy views" : "read fallback"});
  ingest.print();

  std::printf("throughput gate: archive %.1fx vs jsonl (>= 5.0x required)\n", speedup);
  if (speedup < 5.0) {
    std::printf("GATE FAILED: binary ingest speedup %.1fx < 5x\n", speedup);
    exit_code = 1;
  }
  const bool digests_match =
      jsonl_records == archive_records && jsonl_digest.hash == archive_digest.hash;
  std::printf("cross-codec digest: jsonl %016llx, archive %016llx — %s\n\n",
              static_cast<unsigned long long>(jsonl_digest.hash),
              static_cast<unsigned long long>(archive_digest.hash),
              digests_match ? "match" : "MISMATCH");
  if (!digests_match) {
    std::printf("GATE FAILED: codecs decoded different record streams\n");
    exit_code = 1;
  }

  // ---- equivalence-class cost vs table size --------------------------------
  std::printf("--- equivalence-class cost vs table size ---\n");
  ThreadPool pool;
  Table latency({"prefixes in table", "compute_equivalence_classes", "classes",
                 "atomic intervals"});
  std::vector<std::size_t> sizes = {1u << 12, 1u << 14, 1u << 16};
  if (!smoke) {
    sizes.push_back(1u << 18);
    sizes.push_back(1u << 20);
  }
  struct LatencyPoint {
    std::size_t table_size;
    double batch_ms;
    std::size_t classes;
    std::size_t intervals;
  };
  std::vector<LatencyPoint> curve;
  for (std::size_t size : sizes) {
    DataPlaneSnapshot table;
    const std::size_t routers = churn.router_count;
    std::vector<std::vector<FibEntry>> views(routers);
    for (std::size_t i = 0; i < size; ++i) {
      FibEntry entry;
      entry.prefix = full_table_prefix(i);
      entry.source = Protocol::kEbgp;
      entry.action = FibEntry::Action::kExternal;
      entry.external_session = "peer" + std::to_string(i % churn.session_count);
      views[i % routers].push_back(entry);
    }
    for (std::size_t r = 0; r < routers; ++r) {
      table.routers[static_cast<RouterId>(r)].entries = FibTable(std::move(views[r]));
    }

    Stopwatch batch_watch;
    auto batch = compute_equivalence_classes(table, &pool);
    double batch_ms = batch_watch.ms();

    latency.row({std::to_string(size), fmt(batch_ms, 1) + " ms",
                 std::to_string(batch.classes.size()), std::to_string(batch.atomic_intervals)});
    curve.push_back({size, batch_ms, batch.classes.size(), batch.atomic_intervals});
  }
  latency.print();
  std::printf("(the partition grows with the table: one LPM per router per atomic\n"
              " interval. The guard never partitions: early blocking reads a\n"
              " destination's class signature from one lookup per router.)\n\n");

  // ---- artifact -----------------------------------------------------------
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("internet_scale");
  json.key("smoke").value(smoke);
  json.key("prefix_count").value(churn.prefix_count);
  json.key("records").value(gen_stats.records);
  json.key("session_resets").value(gen_stats.session_resets);
  json.key("jsonl_bytes").value(jsonl_bytes);
  json.key("archive_bytes").value(archive_bytes);
  json.key("jsonl_records_per_sec").value(jsonl_rps);
  json.key("archive_records_per_sec").value(archive_rps);
  json.key("archive_mmap").value(reader_mapped);
  json.key("ingest_speedup").value(speedup);
  json.key("ingest_speedup_required").value(5.0);
  json.key("digest_match").value(digests_match);
  json.key("eqclass_cost").begin_array();
  for (const LatencyPoint& point : curve) {
    json.begin_object();
    json.key("table_size").value(point.table_size);
    json.key("batch_ms").value(point.batch_ms);
    json.key("classes").value(point.classes);
    json.key("atomic_intervals").value(point.intervals);
    json.end_object();
  }
  json.end_array();
  json.key("gates_passed").value(exit_code == 0);
  json.end_object();
  json.write("BENCH_internet_scale.json");
  std::printf("wrote BENCH_internet_scale.json\n");

  std::remove(jsonl_path.c_str());
  std::remove(archive_path.c_str());
  return exit_code;
}
