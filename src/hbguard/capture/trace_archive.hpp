// Binary trace archives: the internet-scale capture format.
//
// JSONL traces (trace_io.*) are the interchange/compatibility codec; at
// full-table BGP scale (~10^6 records) parsing text dominates ingest. A
// trace archive is the same record stream in a length-prefixed binary
// form, built on the varint/zigzag machinery of util/wire.hpp:
//
//   +---------+------------------+------------------+----
//   | 8-byte  | u32 len (LE)     | u32 len (LE)     |
//   | magic   | frame payload    | frame payload    | ...
//   +---------+------------------+------------------+----
//   payload := u8 type, body
//
//   type 1  kRecords   a batch of I/O records
//   type 2  kEnd       varint total record count (must be the last frame —
//                      a truncated archive is detected, not silently short)
//
//   records body:
//     varint string_count                per-frame interned string table
//     string_count x { varint len, bytes }  (sessions/details/external
//                                        sessions, first-appearance order)
//     varint record_count
//     record_count x {
//       varint flags                     field-presence bitmap
//       u8 kind | protocol << 3
//       zigzag Δid  Δrouter  Δlogged_time  Δrouter_seq   (vs prev record)
//       [flags] zigzag true_time - logged_time
//       [flags] varint prefix_bits, varint prefix_len
//       [flags] varint session index, peer, local_pref, detail index,
//               config_version, link
//       [flags] fib_entry: u8 action | source << 2, varint bits, len,
//               (kForward: varint next_hop | kExternal: varint index)
//       [flags] varint message_id
//       [flags] varint cause_count, cause_count x zigzag Δcause (vs id)
//     }
//
// Reading is zero-copy: the mmap-backed TraceArchiveReader parses frames
// in place and hands out ArchiveRecord *views* whose strings point into
// the mapped file. Ownership rule: a view is valid only inside the
// for_each callback; materialize() makes the owning IoRecord copy that
// outlives it.
//
// decode rejects anything malformed — truncated frames, string indexes
// past the table, counts that overrun the payload, bad enum values,
// non-canonical prefixes, trailing bytes, oversized length prefixes —
// by returning false. See tests/test_trace_archive.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hbguard/capture/io_record.hpp"
#include "hbguard/capture/trace_io.hpp"

namespace hbguard {

inline constexpr char kTraceArchiveMagic[8] = {'H', 'B', 'G', 'T', 'R', 'C', '0', '1'};

/// Frames larger than this are rejected outright (a corrupt or hostile
/// length prefix must not trigger a giant allocation).
inline constexpr std::size_t kMaxArchiveFramePayload = 1u << 24;

enum class ArchiveFrameType : std::uint8_t {
  kRecords = 1,
  kEnd = 2,
};

/// FibEntry without the owning string — the external session is a view.
struct ArchiveFibEntry {
  Prefix prefix;
  FibEntry::Action action = FibEntry::Action::kDrop;
  RouterId next_hop = kInvalidRouter;
  std::string_view external_session;
  Protocol source = Protocol::kConnected;

  FibEntry materialize() const;
};

/// IoRecord as a non-owning view: strings and cause lists borrow whatever
/// buffer produced them (a mapped archive frame or a live IoRecord).
struct ArchiveRecord {
  IoId id = kNoIo;
  RouterId router = kInvalidRouter;
  IoKind kind = IoKind::kConfigChange;
  SimTime true_time = 0;
  SimTime logged_time = 0;
  std::uint64_t router_seq = 0;

  std::optional<Prefix> prefix;
  Protocol protocol = Protocol::kConnected;
  std::string_view session;
  RouterId peer = kInvalidRouter;
  bool withdraw = false;
  std::optional<std::uint32_t> local_pref;
  std::string_view detail;
  ConfigVersion config_version = kNoVersion;
  LinkId link = kInvalidLink;
  bool link_up = false;
  bool fib_blocked = false;
  bool fib_reset = false;
  bool has_fib_entry = false;
  ArchiveFibEntry fib_entry;
  std::uint64_t message_id = 0;
  std::span<const IoId> true_causes;

  /// View over a live IoRecord (borrows its strings/vector).
  static ArchiveRecord view_of(const IoRecord& record);
  /// Full owning copy.
  IoRecord materialize() const;
};

// -- Frame codec (exposed for the property tests) ---------------------------

struct TraceArchiveWriteOptions {
  /// Records batched per frame (bounds the decoder's working set and the
  /// interned-table scope).
  std::size_t records_per_frame = 8192;
  /// Drop the simulator-only oracle fields (true_causes, message_id,
  /// true_time), as TraceWriteOptions does for JSONL.
  bool redact_ground_truth = false;
};

/// Append one complete kRecords frame (length prefix + payload) to `out`.
void encode_archive_frame(std::span<const IoRecord> batch, std::vector<std::uint8_t>& out,
                          const TraceArchiveWriteOptions& options = {});

/// Append the kEnd frame carrying the archive's total record count.
void encode_archive_end_frame(std::uint64_t total_records, std::vector<std::uint8_t>& out);

/// Decode exactly one complete frame (length prefix included, nothing
/// more). Record views passed to `visit` borrow `frame`'s bytes and die
/// with the call; `visit` returning false stops early (decode still
/// returns true). For a kEnd frame, `end_count` (if non-null) receives the
/// recorded total. Returns false on any truncation or malformed content.
bool decode_archive_frame(std::span<const std::uint8_t> frame, ArchiveFrameType& type,
                          const std::function<bool(const ArchiveRecord&)>& visit,
                          std::uint64_t* end_count = nullptr);

/// Convenience for tests: decode one kRecords frame into owning records.
bool decode_archive_frame(std::span<const std::uint8_t> frame, std::vector<IoRecord>& out);

/// Total size of the frame starting at `buffer` (prefix + payload), or 0
/// while fewer than 4 bytes are available. Streaming readers call this to
/// find the cut point before handing the slice to decode_archive_frame.
std::size_t archive_frame_size(std::span<const std::uint8_t> buffer);

// -- Streaming writer -------------------------------------------------------

/// Streams records into an archive: buffers `records_per_frame` records,
/// encodes one frame at a time (so a million-record trace never exists in
/// memory at once), and seals the archive with the kEnd frame on finish().
class TraceArchiveWriter {
 public:
  explicit TraceArchiveWriter(std::ostream& out, TraceArchiveWriteOptions options = {});
  ~TraceArchiveWriter();
  TraceArchiveWriter(const TraceArchiveWriter&) = delete;
  TraceArchiveWriter& operator=(const TraceArchiveWriter&) = delete;

  void add(const IoRecord& record);
  /// Flush buffered records and write the end frame. Idempotent; called by
  /// the destructor if you forget.
  void finish();

  std::uint64_t records() const { return records_; }

 private:
  void flush_batch();

  std::ostream& out_;
  TraceArchiveWriteOptions options_;
  std::vector<IoRecord> batch_;
  std::vector<std::uint8_t> scratch_;
  std::uint64_t records_ = 0;
  bool finished_ = false;
};

// -- mmap-backed reader -----------------------------------------------------

/// Maps an archive (falling back to a buffered read where mmap is
/// unavailable) and streams ArchiveRecord views straight out of the mapped
/// bytes — no per-record allocation, no string copies.
class TraceArchiveReader {
 public:
  TraceArchiveReader() = default;
  ~TraceArchiveReader();
  TraceArchiveReader(const TraceArchiveReader&) = delete;
  TraceArchiveReader& operator=(const TraceArchiveReader&) = delete;

  /// Map `path` and validate the magic. Returns false (with error()) on
  /// I/O failure or a non-archive file.
  bool open(const std::string& path);

  /// Visit every record in order. Views borrow the mapped bytes: intern or
  /// materialize anything that must outlive the callback. Returns false on
  /// malformed content (error() says where); a visitor returning false
  /// stops cleanly.
  bool for_each(const std::function<bool(const ArchiveRecord&)>& visit);

  /// Convenience: decode the whole archive into owning records.
  bool read_all(std::vector<IoRecord>& out);

  /// Total archive size in bytes (0 before open).
  std::size_t bytes() const { return size_; }
  bool mapped() const { return mapped_; }
  const std::string& error() const { return error_; }

 private:
  void close();

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                 // mmap vs fallback buffer
  std::vector<std::uint8_t> fallback_;
  std::string error_;
};

// -- Converters -------------------------------------------------------------

struct ArchiveConvertStats {
  std::uint64_t records = 0;
  std::uint64_t parse_errors = 0;  // malformed JSONL lines skipped
};

/// Stream a JSONL trace into an archive, line by line (constant memory).
/// Malformed lines are counted and skipped; returns false only on a
/// stream-level failure.
bool convert_jsonl_to_archive(std::istream& in, std::ostream& out,
                              const TraceArchiveWriteOptions& options = {},
                              ArchiveConvertStats* stats = nullptr,
                              std::string* error = nullptr);

/// Stream an archive back to JSONL. Returns false on open/decode failure.
bool convert_archive_to_jsonl(const std::string& archive_path, std::ostream& out,
                              const TraceWriteOptions& options = {},
                              ArchiveConvertStats* stats = nullptr,
                              std::string* error = nullptr);

/// True if `path` starts with the archive magic (cheap format sniff for
/// tools that accept either codec).
bool is_trace_archive(const std::string& path);

}  // namespace hbguard
