// Property / fuzz tests for the distributed-HBG binary wire codec.
//
// Two invariants carry the whole distributed-construction parity argument:
//   * round-trip — decode(encode(batch)) reproduces every field of every
//     message exactly, for any batch the store can produce (and for
//     adversarial ones it can't: empty channels, duplicate keys, max-range
//     ids and times);
//   * rejection — decode_shard_frame returns false on any malformed input
//     (truncations at every byte, trailing bytes, corrupt counts, bad key
//     indexes, unknown type bytes) instead of fabricating events or
//     crashing.
// The fuzz sections drive both with seeded randomness so failures replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "hbguard/provenance/shard_wire.hpp"

namespace hbguard {
namespace {

std::vector<ShardMessage> roundtrip(const std::vector<ShardMessage>& batch) {
  std::vector<std::uint8_t> frame;
  encode_shard_frame(batch, frame);
  EXPECT_EQ(shard_frame_size(frame), frame.size());
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(ShardFrameType::kCrossBatch));
  std::vector<ShardMessage> decoded;
  EXPECT_TRUE(decode_shard_frame(frame, decoded));
  return decoded;
}

TEST(ShardWire, VarintRoundTripCoversBoundaries) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 (1ull << 56) - 1,
                                 std::numeric_limits<std::uint64_t>::max() - 1,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t value : cases) {
    std::vector<std::uint8_t> buffer;
    wire::put_varint(buffer, value);
    EXPECT_LE(buffer.size(), 10u);
    std::size_t pos = 0;
    std::uint64_t back = 0;
    ASSERT_TRUE(wire::get_varint(buffer, pos, back)) << value;
    EXPECT_EQ(back, value);
    EXPECT_EQ(pos, buffer.size());
  }
}

TEST(ShardWire, VarintRejectsTruncationAndOverflow) {
  std::vector<std::uint8_t> buffer;
  wire::put_varint(buffer, std::numeric_limits<std::uint64_t>::max());
  // Every strict prefix of a valid varint is a truncation.
  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    std::size_t pos = 0;
    std::uint64_t value = 0;
    EXPECT_FALSE(wire::get_varint(std::span(buffer.data(), cut), pos, value)) << cut;
  }
  // An 11-byte continuation chain can't be a 64-bit value.
  std::vector<std::uint8_t> runaway(11, 0x80);
  std::size_t pos = 0;
  std::uint64_t value = 0;
  EXPECT_FALSE(wire::get_varint(runaway, pos, value));
  // A 10th byte carrying more than the final bit would overflow 64 bits.
  std::vector<std::uint8_t> overflow(9, 0x80);
  overflow.push_back(0x02);
  pos = 0;
  EXPECT_FALSE(wire::get_varint(overflow, pos, value));
}

TEST(ShardWire, ZigzagIsAnInvolutionOnExtremes) {
  const std::int64_t cases[] = {0, 1, -1, 63, -64, std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t value : cases) {
    EXPECT_EQ(wire::unzigzag(wire::zigzag(value)), value) << value;
  }
}

TEST(ShardWire, EmptyBatchAndEmptyChannelsRoundTrip) {
  EXPECT_TRUE(roundtrip({}).empty());

  // Empty channel keys are legal (a degenerate but encodable FIFO key) and
  // must intern like any other key.
  std::vector<ShardMessage> batch;
  batch.push_back({1, 10, 0, 1, 100, true, ""});
  batch.push_back({2, 11, 0, 1, 200, true, ""});
  batch.push_back({3, 12, 0, 1, 300, true, "x"});
  EXPECT_EQ(roundtrip(batch), batch);
}

TEST(ShardWire, ExtremeFieldValuesRoundTrip) {
  // Max-range ids and times force the widest varints and the largest
  // zigzag deltas (jumping between 0 and uint64 max in one step).
  std::vector<ShardMessage> batch;
  batch.push_back({std::numeric_limits<std::uint64_t>::max(),
                   std::numeric_limits<IoId>::max(), 0, kInvalidRouter,
                   std::numeric_limits<SimTime>::max(), true, "hi"});
  batch.push_back({0, 0, kExternalRouter, 0, std::numeric_limits<SimTime>::min(), true, "lo"});
  batch.push_back({std::numeric_limits<std::uint64_t>::max() / 2, 1, 7, 9, -1, true, "hi"});
  EXPECT_EQ(roundtrip(batch), batch);
}

TEST(ShardWire, DuplicateChannelKeysInternToOneTableEntry) {
  // 64 messages over 2 distinct keys: the frame must pay for the key bytes
  // twice, not 64 times.
  std::vector<ShardMessage> batch;
  const std::string key_a(40, 'a');
  const std::string key_b(40, 'b');
  for (std::uint64_t i = 0; i < 64; ++i) {
    batch.push_back({i, i + 1, 1, 2, static_cast<SimTime>(1000 + i), true,
                     i % 2 == 0 ? key_a : key_b});
  }
  std::vector<std::uint8_t> frame;
  encode_shard_frame(batch, frame);
  EXPECT_LT(frame.size(), 2 * key_a.size() + 64 * 12);
  std::vector<ShardMessage> decoded;
  ASSERT_TRUE(decode_shard_frame(frame, decoded));
  EXPECT_EQ(decoded, batch);
}

TEST(ShardWire, MultipleFramesConcatenateAndSplitCleanly) {
  // A byte stream is just frames back to back; shard_frame_size must find
  // every cut point exactly, including around an empty batch.
  const std::vector<std::vector<ShardMessage>> batches = {
      {{1, 2, 3, 4, 5, true, "k"}},
      {},
      {{6, 7, 3, 4, 8, true, "k"}, {9, 10, 4, 3, 11, true, "other"}},
  };
  std::vector<std::uint8_t> stream;
  for (const auto& batch : batches) encode_shard_frame(batch, stream);

  std::size_t pos = 0;
  std::vector<std::vector<ShardMessage>> seen;
  while (pos < stream.size()) {
    std::span<const std::uint8_t> rest(stream.data() + pos, stream.size() - pos);
    std::size_t size = shard_frame_size(rest);
    ASSERT_GE(size, 5u);
    ASSERT_LE(size, rest.size());
    std::vector<ShardMessage> decoded;
    ASSERT_TRUE(decode_shard_frame(rest.subspan(0, size), decoded));
    seen.push_back(std::move(decoded));
    pos += size;
  }
  EXPECT_EQ(seen, batches);
}

TEST(ShardWire, UnknownFrameTypesAreRejected) {
  // kCrossBatch (1) is the only frame type; every other type byte must be
  // refused even when the body would otherwise decode.
  std::vector<std::uint8_t> frame;
  encode_shard_frame(std::vector<ShardMessage>{{1, 2, 3, 4, 5, true, "k"}}, frame);
  std::vector<ShardMessage> decoded;
  ASSERT_TRUE(decode_shard_frame(frame, decoded));
  for (std::uint8_t type : {0, 2, 3, 4, 5, 255}) {
    std::vector<std::uint8_t> retyped = frame;
    retyped[4] = type;
    EXPECT_FALSE(decode_shard_frame(retyped, decoded)) << int{type};
    EXPECT_TRUE(decoded.empty());
  }
}

TEST(ShardWire, FuzzRandomBatchesRoundTripExactly) {
  std::mt19937_64 rng(0xC0DEC);
  for (int iteration = 0; iteration < 300; ++iteration) {
    // Small alphabet of keys so duplicates are common; sizes 0..40 so the
    // empty-batch and single-message paths get constant coverage.
    std::uniform_int_distribution<std::size_t> size_dist(0, 40);
    std::uniform_int_distribution<int> key_dist(0, 5);
    std::uniform_int_distribution<std::uint64_t> wide(
        0, std::numeric_limits<std::uint64_t>::max());
    std::vector<ShardMessage> batch(size_dist(rng));
    for (ShardMessage& m : batch) {
      m.seq = wide(rng);
      m.io = wide(rng);
      m.from_router = static_cast<RouterId>(rng());
      m.to_router = static_cast<RouterId>(rng());
      m.logged_time = static_cast<SimTime>(wide(rng));
      m.channel = std::string(static_cast<std::size_t>(key_dist(rng)),
                              static_cast<char>('a' + key_dist(rng)));
    }
    EXPECT_EQ(roundtrip(batch), batch) << "iteration " << iteration;
  }
}

TEST(ShardWire, FuzzTruncatedFramesAreRejectedAtEveryCut) {
  std::mt19937_64 rng(0xBADF00D);
  std::uniform_int_distribution<std::uint64_t> wide(0,
                                                    std::numeric_limits<std::uint64_t>::max());
  std::vector<ShardMessage> batch(17);
  for (ShardMessage& m : batch) {
    m.seq = wide(rng);
    m.io = wide(rng);
    m.from_router = static_cast<RouterId>(rng());
    m.to_router = static_cast<RouterId>(rng());
    m.logged_time = static_cast<SimTime>(wide(rng));
    m.channel = "channel-" + std::to_string(rng() % 4);
  }
  std::vector<std::uint8_t> frame;
  encode_shard_frame(batch, frame);

  std::vector<ShardMessage> decoded;
  // decode_shard_frame requires the span to be exactly one frame: every
  // strict prefix must be rejected, as must any trailing garbage.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(decode_shard_frame(std::span(frame.data(), cut), decoded)) << cut;
  }
  std::vector<std::uint8_t> trailing = frame;
  trailing.push_back(0);
  EXPECT_FALSE(decode_shard_frame(trailing, decoded));
}

TEST(ShardWire, FuzzRandomByteFlipsNeverDecodeOutOfBounds) {
  // Flip bytes all over a valid frame; decode must either reject the frame
  // or produce some batch — never read out of bounds (ASan watches) and
  // never return a key index past the table.
  std::vector<ShardMessage> batch;
  for (std::uint64_t i = 0; i < 12; ++i) {
    batch.push_back({i, i * 3 + 1, 1, 2, static_cast<SimTime>(i * 100), true,
                     "key-" + std::to_string(i % 3)});
  }
  std::vector<std::uint8_t> frame;
  encode_shard_frame(batch, frame);

  std::mt19937_64 rng(0xF1BBED);
  std::vector<ShardMessage> decoded;
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<std::uint8_t> corrupt = frame;
    // Corrupt the payload only: resizing via the length prefix is the
    // truncation test's job, and a mutated prefix just fails the size check.
    std::size_t at = 4 + rng() % (corrupt.size() - 4);
    corrupt[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    decode_shard_frame(corrupt, decoded);  // must not crash; result is free
  }

  // Targeted corruption: a key index pointing past the interned table.
  std::vector<ShardMessage> one;
  one.push_back({1, 2, 3, 4, 5, true, "k"});
  std::vector<std::uint8_t> bad;
  encode_shard_frame(one, bad);
  // Payload layout: type, key_count=1, len=1, 'k', event_count=1, key_idx=0...
  // bump the key index varint (single byte, value 0) to 7.
  bad[4 + 1 + 1 + 1 + 1 + 1] = 7;
  EXPECT_FALSE(decode_shard_frame(bad, decoded));
}

TEST(ShardWire, OversizedLengthPrefixIsRejected) {
  std::vector<std::uint8_t> frame;
  encode_shard_frame(std::vector<ShardMessage>{{1, 2, 3, 4, 5, true, "k"}}, frame);
  // Claim a payload beyond the hard cap; decode must refuse before any
  // allocation sized by the attacker-controlled prefix.
  const std::uint32_t huge = (1u << 24) + 1;
  frame[0] = static_cast<std::uint8_t>(huge);
  frame[1] = static_cast<std::uint8_t>(huge >> 8);
  frame[2] = static_cast<std::uint8_t>(huge >> 16);
  frame[3] = static_cast<std::uint8_t>(huge >> 24);
  std::vector<ShardMessage> decoded;
  EXPECT_FALSE(decode_shard_frame(frame, decoded));
}

}  // namespace
}  // namespace hbguard
