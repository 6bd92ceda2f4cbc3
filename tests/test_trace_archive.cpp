// Property / fuzz tests for the binary trace-archive codec.
//
// Mirrors tests/test_shard_wire.cpp: the archive format carries the same
// parity burden (JSONL and binary must describe the identical record
// stream), so the same two invariants are fuzzed —
//   * round-trip — decode(encode(batch)) reproduces every field of every
//     record exactly, for any batch the capture can produce (and
//     adversarial ones it can't: empty batches, extreme ids/times,
//     interleaved string reuse);
//   * rejection — decoding returns false on any malformed input
//     (truncations at every byte, byte flips, oversized length prefixes,
//     string indexes past the table) instead of fabricating records.
// Plus the layers on top: the mmap reader and the JSONL converter round
// trip.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "hbguard/capture/trace_archive.hpp"
#include "hbguard/capture/trace_io.hpp"
#include "hbguard/util/wire.hpp"

namespace hbguard {
namespace {

/// The largest id a frame may carry (2^32 - 1).
constexpr IoId kMaxId = 0xffffffffULL;

void expect_same(const IoRecord& a, const IoRecord& b, const char* where) {
  EXPECT_EQ(a.id, b.id) << where;
  EXPECT_EQ(a.router, b.router) << where;
  EXPECT_EQ(a.kind, b.kind) << where;
  EXPECT_EQ(a.true_time, b.true_time) << where;
  EXPECT_EQ(a.logged_time, b.logged_time) << where;
  EXPECT_EQ(a.router_seq, b.router_seq) << where;
  EXPECT_EQ(a.prefix, b.prefix) << where;
  EXPECT_EQ(a.protocol, b.protocol) << where;
  EXPECT_EQ(a.session, b.session) << where;
  EXPECT_EQ(a.peer, b.peer) << where;
  EXPECT_EQ(a.withdraw, b.withdraw) << where;
  EXPECT_EQ(a.local_pref, b.local_pref) << where;
  EXPECT_EQ(a.detail, b.detail) << where;
  EXPECT_EQ(a.config_version, b.config_version) << where;
  EXPECT_EQ(a.link, b.link) << where;
  EXPECT_EQ(a.link_up, b.link_up) << where;
  EXPECT_EQ(a.fib_entry, b.fib_entry) << where;
  EXPECT_EQ(a.fib_blocked, b.fib_blocked) << where;
  EXPECT_EQ(a.fib_reset, b.fib_reset) << where;
  EXPECT_EQ(a.message_id, b.message_id) << where;
  EXPECT_EQ(a.true_causes, b.true_causes) << where;
}

std::vector<IoRecord> roundtrip(const std::vector<IoRecord>& batch,
                                TraceArchiveWriteOptions options = {}) {
  std::vector<std::uint8_t> frame;
  encode_archive_frame(batch, frame, options);
  EXPECT_EQ(archive_frame_size(frame), frame.size());
  std::vector<IoRecord> decoded;
  EXPECT_TRUE(decode_archive_frame(frame, decoded));
  return decoded;
}

IoRecord rich_record() {
  IoRecord r;
  r.id = 42;
  r.router = 3;
  r.kind = IoKind::kFibUpdate;
  r.true_time = 1'000'000;
  r.logged_time = 1'000'250;  // differs from true_time
  r.router_seq = 17;
  r.prefix = Prefix(IpAddress(10, 1, 2, 0), 24);
  r.protocol = Protocol::kEbgp;
  r.session = "uplink0";
  r.peer = kExternalRouter;
  r.withdraw = true;
  r.local_pref = 200;
  r.detail = "flap \"quoted\"\nline";
  r.config_version = 7;
  r.link = 12;
  r.link_up = true;
  r.fib_blocked = true;
  r.fib_reset = true;
  FibEntry entry;
  entry.prefix = Prefix(IpAddress(10, 1, 0, 0), 16);
  entry.action = FibEntry::Action::kExternal;
  entry.external_session = "uplink0";
  entry.source = Protocol::kEbgp;
  r.fib_entry = entry;
  r.message_id = 991;
  r.true_causes = {1, 5, 41};
  return r;
}

TEST(TraceArchive, EveryFieldRoundTrips) {
  std::vector<IoRecord> batch = {rich_record()};
  IoRecord forward;
  forward.id = 43;
  forward.router = 1;
  forward.kind = IoKind::kRecvAdvert;
  forward.logged_time = 999'999;
  forward.true_time = 999'999;  // equal: kTrueTimeDiffers path off
  forward.router_seq = 1;
  FibEntry fwd;
  fwd.prefix = Prefix(IpAddress(192, 168, 0, 0), 30);
  fwd.action = FibEntry::Action::kForward;
  fwd.next_hop = 9;
  fwd.source = Protocol::kIbgp;
  forward.fib_entry = fwd;
  batch.push_back(forward);
  IoRecord defaults;  // every field but the id at its default
  defaults.id = 44;
  batch.push_back(defaults);

  std::vector<IoRecord> decoded = roundtrip(batch);
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same(batch[i], decoded[i], "EveryFieldRoundTrips");
  }
}

TEST(TraceArchive, EmptyBatchRoundTrips) {
  EXPECT_TRUE(roundtrip({}).empty());
}

TEST(TraceArchive, ExtremeFieldValuesRoundTrip) {
  IoRecord a;
  a.id = kMaxId;
  a.router = kInvalidRouter - 2;
  a.kind = IoKind::kSendAdvert;
  a.true_time = std::numeric_limits<SimTime>::max();
  a.logged_time = std::numeric_limits<SimTime>::min();
  a.router_seq = std::numeric_limits<std::uint64_t>::max();
  a.peer = kInvalidRouter;  // flag boundary: sentinel means "absent"
  a.local_pref = std::numeric_limits<std::uint32_t>::max();
  a.link = kInvalidLink - 1;
  a.true_causes = {std::numeric_limits<IoId>::max(), 0, 1};
  IoRecord b;  // deltas from the maxima back to the minima wrap the full u64 range
  b.id = 1;
  b.router = 0;
  b.kind = IoKind::kConfigChange;
  b.true_time = 0;
  b.logged_time = 0;
  b.router_seq = 0;
  std::vector<IoRecord> decoded = roundtrip({a, b});
  ASSERT_EQ(decoded.size(), 2u);
  expect_same(a, decoded[0], "extreme[0]");
  expect_same(b, decoded[1], "extreme[1]");
}

/// One hand-assembled frame: an empty string table and records whose id
/// and router are the running sums of `deltas` (id, router) from zero.
std::vector<std::uint8_t> frame_with_ids(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& deltas) {
  std::vector<std::uint8_t> payload;
  payload.push_back(1);                     // kRecords
  wire::put_varint(payload, 0);             // string_count = 0
  wire::put_varint(payload, deltas.size());  // record_count
  for (const auto& [id, router] : deltas) {
    wire::put_varint(payload, 0);  // flags: none
    payload.push_back(0);          // kind/protocol
    wire::put_zigzag(payload, id);
    wire::put_zigzag(payload, router);
    wire::put_zigzag(payload, 0);  // logged_time
    wire::put_zigzag(payload, 0);  // router_seq
  }
  std::vector<std::uint8_t> frame;
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<std::uint8_t>(payload.size() >> shift));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

TEST(TraceArchive, IdsOutsideTheJsonlRangeAndWideRoutersAreRejected) {
  // The JSONL reader's rule: an id in [1, 2^32), a router within 32 bits.
  const std::int64_t max_u32 = 0xffffffffLL;
  std::vector<IoRecord> out;
  ASSERT_TRUE(decode_archive_frame(frame_with_ids({{1, 0}, {max_u32 - 1, max_u32}}), out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].id, kMaxId);
  EXPECT_EQ(out[1].router, std::numeric_limits<RouterId>::max());

  EXPECT_FALSE(decode_archive_frame(frame_with_ids({{0, 0}}), out)) << "id 0";
  EXPECT_FALSE(decode_archive_frame(frame_with_ids({{max_u32 + 1, 0}}), out)) << "id 2^32";
  EXPECT_FALSE(decode_archive_frame(frame_with_ids({{-1, 0}}), out)) << "id 2^64-1";
  // A running delta that leaves 32 bits, from the first record or a later one.
  EXPECT_FALSE(decode_archive_frame(frame_with_ids({{1, max_u32 + 1}}), out)) << "router 2^32";
  EXPECT_FALSE(decode_archive_frame(frame_with_ids({{1, max_u32}, {1, 1}}), out))
      << "router 2^32 by delta";
  EXPECT_FALSE(decode_archive_frame(frame_with_ids({{1, -1}}), out)) << "router 2^64-1";

  // The encoder takes any id; the decoder refuses the frame.
  for (IoId id : {IoId{0}, kMaxId + 1, std::numeric_limits<IoId>::max()}) {
    std::vector<IoRecord> batch = {rich_record()};
    batch[0].id = id;
    std::vector<std::uint8_t> frame;
    encode_archive_frame(batch, frame);
    EXPECT_FALSE(decode_archive_frame(frame, out)) << "id " << id;
  }
}

TEST(TraceArchive, DuplicateStringsInternToOneTableEntry) {
  std::vector<IoRecord> batch;
  for (int i = 0; i < 50; ++i) {
    IoRecord r;
    r.id = static_cast<IoId>(i + 1);
    r.kind = IoKind::kRecvAdvert;
    r.session = "uplink0";       // same session every time
    r.detail = "route change";   // same detail every time
    batch.push_back(r);
  }
  std::vector<std::uint8_t> frame;
  encode_archive_frame(batch, frame);
  // One table entry per distinct string: well under one copy per record.
  std::size_t text_bytes = (7 + 12) * 50;
  EXPECT_LT(frame.size(), text_bytes);
  std::vector<IoRecord> decoded;
  ASSERT_TRUE(decode_archive_frame(frame, decoded));
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same(batch[i], decoded[i], "interning");
  }
}

TEST(TraceArchive, RedactionDropsOracleFields) {
  TraceArchiveWriteOptions options;
  options.redact_ground_truth = true;
  std::vector<IoRecord> decoded = roundtrip({rich_record()}, options);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].true_time, decoded[0].logged_time);
  EXPECT_EQ(decoded[0].message_id, 0u);
  EXPECT_TRUE(decoded[0].true_causes.empty());
  // Observable fields survive.
  EXPECT_EQ(decoded[0].session, "uplink0");
  EXPECT_EQ(decoded[0].fib_entry, rich_record().fib_entry);
}

TEST(TraceArchive, TruncatedFramesAreRejectedAtEveryCut) {
  std::vector<IoRecord> batch = {rich_record()};
  std::vector<std::uint8_t> frame;
  encode_archive_frame(batch, frame);
  std::vector<IoRecord> out;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::span<const std::uint8_t> prefix(frame.data(), cut);
    EXPECT_FALSE(decode_archive_frame(prefix, out)) << "cut=" << cut;
  }
  std::vector<std::uint8_t> trailing = frame;
  trailing.push_back(0);
  EXPECT_FALSE(decode_archive_frame(trailing, out));
  EXPECT_TRUE(decode_archive_frame(frame, out));  // the untouched frame is fine
}

TEST(TraceArchive, OversizedLengthPrefixIsRejected) {
  std::vector<std::uint8_t> frame(4 + 5, 0);
  std::uint32_t huge = static_cast<std::uint32_t>(kMaxArchiveFramePayload) + 1;
  frame[0] = static_cast<std::uint8_t>(huge);
  frame[1] = static_cast<std::uint8_t>(huge >> 8);
  frame[2] = static_cast<std::uint8_t>(huge >> 16);
  frame[3] = static_cast<std::uint8_t>(huge >> 24);
  std::vector<IoRecord> out;
  // Hand the decoder a slice claiming a huge payload: it must reject on the
  // length prefix itself, not trust it.
  EXPECT_FALSE(decode_archive_frame(std::span<const std::uint8_t>(frame), out));
}

TEST(TraceArchive, StringIndexPastTableIsRejected) {
  // Hand-assembled frame: empty string table, one record whose flags claim
  // a session, session index 0 — past the (empty) table.
  std::vector<std::uint8_t> payload;
  payload.push_back(1);              // kRecords
  wire::put_varint(payload, 0);      // string_count = 0
  wire::put_varint(payload, 1);      // record_count = 1
  wire::put_varint(payload, 1u << 7);  // flags: has_session
  payload.push_back(0);              // kind/protocol
  wire::put_zigzag(payload, 1);      // id 1
  for (int i = 0; i < 3; ++i) wire::put_zigzag(payload, 0);
  wire::put_varint(payload, 0);      // session index 0 >= table size 0
  std::vector<std::uint8_t> frame;
  frame.push_back(static_cast<std::uint8_t>(payload.size()));
  frame.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
  frame.push_back(static_cast<std::uint8_t>(payload.size() >> 16));
  frame.push_back(static_cast<std::uint8_t>(payload.size() >> 24));
  frame.insert(frame.end(), payload.begin(), payload.end());
  std::vector<IoRecord> out;
  EXPECT_FALSE(decode_archive_frame(frame, out));
}

IoRecord random_record(std::mt19937_64& rng) {
  auto coin = [&] { return (rng() & 1) != 0; };
  IoRecord r;
  r.id = (rng() & kMaxId) | 1;  // the decoder's id range, [1, 2^32)
  r.router = static_cast<RouterId>(rng() % 1000);
  r.kind = static_cast<IoKind>(rng() % 6);
  r.logged_time = static_cast<SimTime>(rng());
  r.true_time = coin() ? r.logged_time : static_cast<SimTime>(rng());
  r.router_seq = rng();
  if (coin()) {
    auto length = static_cast<std::uint8_t>(rng() % 33);
    std::uint32_t mask = length >= 32 ? 0xffffffffu : ~(0xffffffffu >> length);
    r.prefix = Prefix(IpAddress(static_cast<std::uint32_t>(rng()) & mask), length);
  }
  r.protocol = static_cast<Protocol>(rng() % 5);
  if (coin()) r.session = "session-" + std::to_string(rng() % 8);
  if (coin()) r.peer = static_cast<RouterId>(rng() % 100);
  r.withdraw = coin();
  if (coin()) r.local_pref = static_cast<std::uint32_t>(rng());
  if (coin()) r.detail = "detail-" + std::to_string(rng() % 4);
  if (coin()) r.config_version = static_cast<ConfigVersion>(rng() % 1000 + 1);
  if (coin()) r.link = static_cast<LinkId>(rng() % 500);
  r.link_up = coin();
  r.fib_blocked = coin();
  r.fib_reset = coin();
  if (coin()) {
    FibEntry entry;
    auto length = static_cast<std::uint8_t>(rng() % 33);
    std::uint32_t mask = length >= 32 ? 0xffffffffu : ~(0xffffffffu >> length);
    entry.prefix = Prefix(IpAddress(static_cast<std::uint32_t>(rng()) & mask), length);
    entry.action = static_cast<FibEntry::Action>(rng() % 4);
    if (entry.action == FibEntry::Action::kForward) {
      entry.next_hop = static_cast<RouterId>(rng() % 100);
    }
    if (entry.action == FibEntry::Action::kExternal) {
      entry.external_session = "session-" + std::to_string(rng() % 8);
    }
    entry.source = static_cast<Protocol>(rng() % 5);
    r.fib_entry = entry;
  }
  if (coin()) r.message_id = rng();
  if (coin()) {
    std::size_t causes = rng() % 5;
    for (std::size_t i = 0; i < causes; ++i) r.true_causes.push_back(rng());
  }
  return r;
}

TEST(TraceArchive, FuzzRandomBatchesRoundTripExactly) {
  std::mt19937_64 rng(0xA7C417);
  for (int iteration = 0; iteration < 300; ++iteration) {
    std::size_t count = rng() % 20;
    std::vector<IoRecord> batch;
    for (std::size_t i = 0; i < count; ++i) batch.push_back(random_record(rng));
    std::vector<IoRecord> decoded = roundtrip(batch);
    ASSERT_EQ(decoded.size(), batch.size()) << "iteration " << iteration;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_same(batch[i], decoded[i], "fuzz");
    }
  }
}

TEST(TraceArchive, FuzzRandomByteFlipsNeverDecodeOutOfBounds) {
  std::mt19937_64 rng(0xF11B5);
  std::vector<IoRecord> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(random_record(rng));
  std::vector<std::uint8_t> clean;
  encode_archive_frame(batch, clean);
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<std::uint8_t> frame = clean;
    // Flip payload bytes only — a corrupted length prefix just truncates.
    std::size_t at = 4 + rng() % (frame.size() - 4);
    frame[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    std::vector<IoRecord> out;
    // Either rejected or decoded into fully-owned records; both are fine,
    // crashing or reading out of bounds (ASan in CI) is not.
    decode_archive_frame(frame, out);
  }
}

TEST(TraceArchive, FuzzTruncationsOfRandomFramesAreRejected) {
  std::mt19937_64 rng(0xC07);
  std::vector<IoRecord> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(random_record(rng));
  std::vector<std::uint8_t> frame;
  encode_archive_frame(batch, frame);
  std::vector<IoRecord> out;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(
        decode_archive_frame(std::span<const std::uint8_t>(frame.data(), cut), out))
        << "cut=" << cut;
  }
}

// ---- File-level writer/reader ---------------------------------------------

class TraceArchiveFileTest : public ::testing::Test {
 protected:
  std::string path_ = (std::filesystem::temp_directory_path() /
                       ("trace_archive_test_" + std::to_string(::getpid()) + ".hbgtrc"))
                          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceArchiveFileTest, WriterReaderRoundTripAcrossFrames) {
  std::mt19937_64 rng(0xF11E);
  std::vector<IoRecord> records;
  for (int i = 0; i < 100; ++i) records.push_back(random_record(rng));
  {
    std::ofstream out(path_, std::ios::binary);
    TraceArchiveWriteOptions options;
    options.records_per_frame = 7;  // force many frames
    TraceArchiveWriter writer(out, options);
    for (const IoRecord& r : records) writer.add(r);
    writer.finish();
    EXPECT_EQ(writer.records(), records.size());
  }
  EXPECT_TRUE(is_trace_archive(path_));

  TraceArchiveReader reader;
  ASSERT_TRUE(reader.open(path_)) << reader.error();
  EXPECT_TRUE(reader.mapped());  // Linux: the mmap path, not the fallback
  std::vector<IoRecord> decoded;
  ASSERT_TRUE(reader.read_all(decoded)) << reader.error();
  ASSERT_EQ(decoded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    expect_same(records[i], decoded[i], "file");
  }

  // Early stop works and is not an error.
  std::size_t seen = 0;
  ASSERT_TRUE(reader.for_each([&](const ArchiveRecord&) { return ++seen < 10; }));
  EXPECT_EQ(seen, 10u);
}

TEST_F(TraceArchiveFileTest, MissingEndFrameIsDetected) {
  std::vector<std::uint8_t> bytes(kTraceArchiveMagic, kTraceArchiveMagic + 8);
  std::vector<IoRecord> batch = {rich_record()};
  encode_archive_frame(batch, bytes);
  // No end frame.
  {
    std::ofstream out(path_, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  TraceArchiveReader reader;
  ASSERT_TRUE(reader.open(path_));
  std::vector<IoRecord> decoded;
  EXPECT_FALSE(reader.read_all(decoded));
  EXPECT_NE(reader.error().find("end frame"), std::string::npos) << reader.error();
}

TEST_F(TraceArchiveFileTest, EndFrameCountMismatchIsDetected) {
  std::vector<std::uint8_t> bytes(kTraceArchiveMagic, kTraceArchiveMagic + 8);
  std::vector<IoRecord> batch = {rich_record()};
  encode_archive_frame(batch, bytes);
  encode_archive_end_frame(5, bytes);  // lies: one record written
  {
    std::ofstream out(path_, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  TraceArchiveReader reader;
  ASSERT_TRUE(reader.open(path_));
  std::vector<IoRecord> decoded;
  EXPECT_FALSE(reader.read_all(decoded));
  EXPECT_NE(reader.error().find("mismatch"), std::string::npos) << reader.error();
}

TEST_F(TraceArchiveFileTest, NonArchiveFileIsRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "{\"id\":1}\n";
  }
  EXPECT_FALSE(is_trace_archive(path_));
  TraceArchiveReader reader;
  EXPECT_FALSE(reader.open(path_));
}

TEST_F(TraceArchiveFileTest, JsonlConverterRoundTripsByteIdentically) {
  std::mt19937_64 rng(0x10D1);
  std::vector<IoRecord> records;
  for (int i = 0; i < 60; ++i) {
    IoRecord record = random_record(rng);
    // The binary codec carries full-range 64-bit values, but this trip
    // goes through JSONL, whose reader rejects negative times/seqs and ids
    // outside [1, 2^32) — clamp into the JSON-representable range.
    record.id = (record.id & 0xFFFFFFFFull) | 1;
    record.logged_time = static_cast<SimTime>(record.logged_time) < 0
                             ? -static_cast<SimTime>(record.logged_time)
                             : record.logged_time;
    record.true_time = record.logged_time;
    record.router_seq &= 0x7FFFFFFFFFFFFFFFull;
    record.message_id &= 0x7FFFFFFFFFFFFFFFull;
    record.true_causes.clear();
    records.push_back(record);
  }

  std::ostringstream jsonl;
  write_trace(jsonl, records);

  // JSONL -> archive file.
  {
    std::istringstream in(jsonl.str());
    std::ofstream out(path_, std::ios::binary);
    ArchiveConvertStats stats;
    std::string error;
    ASSERT_TRUE(convert_jsonl_to_archive(in, out, {}, &stats, &error)) << error;
    EXPECT_EQ(stats.records, records.size());
    EXPECT_EQ(stats.parse_errors, 0u);
  }
  // Archive file -> JSONL, byte-identical to the original serialization.
  std::ostringstream back;
  ArchiveConvertStats stats;
  std::string error;
  ASSERT_TRUE(convert_archive_to_jsonl(path_, back, {}, &stats, &error)) << error;
  EXPECT_EQ(stats.records, records.size());
  EXPECT_EQ(back.str(), jsonl.str());
}

}  // namespace
}  // namespace hbguard
