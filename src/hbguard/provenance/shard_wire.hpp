// Binary wire codec for the distributed-HBG shard exchange (§5).
//
// Cross-router happens-before facts travel between shards as batches of
// ShardMessages. This codec turns a batch into one self-delimiting frame:
//
//   +----------------+--------------------------------------------------+
//   | u32 len (LE)   | payload, `len` bytes                             |
//   +----------------+--------------------------------------------------+
//   payload := u8 type, body
//
//   type 1  kCrossBatch   cross-shard sends — the §5 wire traffic
//
//   body:
//     varint key_count                 interned channel-key table,
//     key_count x { varint len, bytes }  first-appearance order
//     varint event_count
//     event_count x {                  every event is a send
//       varint key_index
//       zigzag Δseq  zigzag Δio  zigzag Δfrom  zigzag Δto  zigzag Δtime
//     }                                deltas vs the previous event in the
//                                      frame (first event vs zero)
//
// Varints are LEB128 (7 bits per byte, high bit = continue, max 10 bytes);
// signed fields are zigzag-mapped first. Channel keys repeat heavily inside
// a batch (every message on one BGP session shares its key) and ids/times
// are near-monotone, so delta + interning shrinks a message to a few bytes
// — ConstructionStats::wire_bytes reports the *actual* encoded frame
// sizes, not an estimate.
//
// decode_shard_frame rejects anything malformed — truncated frames, any
// type byte but kCrossBatch, key indexes past the table, counts that
// overrun the payload, trailing bytes — by returning false and leaving no
// partial state in `out` beyond what it already parsed into the cleared
// vector. See tests/test_shard_wire.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hbguard/capture/io_record.hpp"
#include "hbguard/util/wire.hpp"

namespace hbguard {

/// One FIFO channel event of distributed HBG construction: everything a
/// shard's channel matcher needs to replay the engine's channel semantics
/// as if it had seen the record locally. Only sends cross the wire; a
/// shard's own receives stay local.
struct ShardMessage {
  std::uint64_t seq = 0;  // global capture-order sequence of the record
  IoId io = kNoIo;        // the send (or, receiver-local, recv) record
  RouterId from_router = kInvalidRouter;  // channel-upstream (sending) router
  RouterId to_router = kInvalidRouter;    // channel-downstream (receiving) router
  SimTime logged_time = 0;
  bool is_send = true;
  std::string channel;  // FIFO channel key (RuleMatchEngine::channel_key)

  bool operator==(const ShardMessage&) const = default;
};

enum class ShardFrameType : std::uint8_t {
  kCrossBatch = 1,
};

/// Append one complete kCrossBatch frame (length prefix + payload) for
/// `batch` to `out`. Every event must be a send (is_send is implied on the
/// wire and asserted).
void encode_shard_frame(std::span<const ShardMessage> batch, std::vector<std::uint8_t>& out);

/// Decode exactly one complete frame into `out` (cleared first). `frame`
/// must span the whole frame (length prefix included) and nothing more.
/// Returns false on any truncation or malformed content.
bool decode_shard_frame(std::span<const std::uint8_t> frame, std::vector<ShardMessage>& out);

/// Total size of the frame starting at `buffer` (prefix + payload), or 0
/// while fewer than 4 bytes are available. Streaming readers call this to
/// find the cut point before handing the slice to decode_shard_frame.
std::size_t shard_frame_size(std::span<const std::uint8_t> buffer);

/// Frames larger than this are rejected outright (a corrupt or hostile
/// length prefix must not trigger a giant allocation).
inline constexpr std::size_t kMaxShardFramePayload = 1u << 24;

// The varint/zigzag primitives the codec builds on live in util/wire.hpp
// (shared with the trace archive codec in capture/trace_archive.*) and
// remain reachable as hbguard::wire for the property tests.

}  // namespace hbguard
