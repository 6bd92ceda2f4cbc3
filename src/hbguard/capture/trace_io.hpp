// Capture trace serialization (JSON Lines).
//
// Real deployments ship router logs to a collector and analyze them
// offline; these helpers give the capture stream a stable on-disk form —
// one JSON object per I/O record — so traces can be archived, replayed
// through the analysis pipeline (HBG inference, snapshots, provenance)
// without the simulator, and diffed across runs. Ground-truth fields
// (true_causes, message ids) are serialized too, but a `redact_ground_truth`
// mode drops them to produce exactly what a real collector would have.
#pragma once

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hbguard/capture/io_record.hpp"

namespace hbguard {

struct TraceWriteOptions {
  /// Drop the simulator-only oracle fields (true_causes, message_id,
  /// true_time): the result is what a production log collector sees.
  bool redact_ground_truth = false;
};

/// One record as a single-line JSON object.
std::string to_json_line(const IoRecord& record, const TraceWriteOptions& options = {});

/// Serialize a whole trace, one record per line.
void write_trace(std::ostream& out, std::span<const IoRecord> records,
                 const TraceWriteOptions& options = {});

struct TraceParseError {
  std::size_t line = 0;  // 1-based
  std::string message;
};

struct TraceParseResult {
  std::vector<IoRecord> records;
  std::vector<TraceParseError> errors;
  bool ok() const { return errors.empty(); }
};

enum class TraceLineStatus {
  kRecord,  // `out` holds the parsed record
  kBlank,   // whitespace-only line, nothing parsed
  kError,   // malformed; `error` says why
};

/// Deepest container nesting a line may use. A record needs two levels (the
/// record object, then fib_entry or true_causes); anything past this is
/// rejected before it can exhaust the parser.
inline constexpr int kMaxJsonDepth = 16;

/// Parse exactly one JSONL line into `out` (reset first). This is the
/// primitive the streaming readers are built on: no stream wrapper, no
/// accumulation — one line in, one record (or verdict) out. The line must
/// be one JSON object, optionally surrounded by whitespace; trailing bytes,
/// nesting past kMaxJsonDepth, an `id` outside [1, 2^32) and a `router`,
/// `peer`, `next_hop`, `local_pref` or `link` outside [0, 2^32) are errors.
/// On kError `out` holds no meaningful record.
TraceLineStatus parse_trace_line(std::string_view line, IoRecord& out, std::string& error);

/// Stream a trace record-by-record with constant memory: each parsed record
/// is handed to `visit` (which may take ownership) instead of being
/// accumulated. `visit` returning false stops the scan early — the stream
/// is left positioned after the last consumed line. Malformed lines are
/// appended to `errors` (if non-null) and skipped. Returns false iff any
/// line was malformed.
bool stream_trace(std::istream& in, const std::function<bool(IoRecord&&)>& visit,
                  std::vector<TraceParseError>* errors = nullptr);

/// Parse a whole trace into memory (built on stream_trace). Prefer
/// stream_trace for large files.
TraceParseResult parse_trace(std::istream& in);
TraceParseResult parse_trace_text(const std::string& text);

}  // namespace hbguard
