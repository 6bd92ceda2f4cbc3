#include "hbguard/provenance/shard_wire.hpp"

#include <cassert>
#include <unordered_map>

namespace hbguard {

namespace {

using wire::get_varint;
using wire::get_zigzag;
using wire::put_varint;
using wire::put_zigzag;

/// Reserve the 4-byte length prefix; returns its offset so seal_frame can
/// patch the payload size in once the payload is written.
std::size_t open_frame(std::vector<std::uint8_t>& out) {
  std::size_t at = out.size();
  out.insert(out.end(), 4, 0);
  return at;
}

void seal_frame(std::vector<std::uint8_t>& out, std::size_t prefix_at) {
  std::size_t payload = out.size() - prefix_at - 4;
  assert(payload <= kMaxShardFramePayload);
  out[prefix_at + 0] = static_cast<std::uint8_t>(payload);
  out[prefix_at + 1] = static_cast<std::uint8_t>(payload >> 8);
  out[prefix_at + 2] = static_cast<std::uint8_t>(payload >> 16);
  out[prefix_at + 3] = static_cast<std::uint8_t>(payload >> 24);
}

/// Reference point the per-field deltas start from. All fields are kept
/// unsigned so delta arithmetic wraps instead of overflowing (times are
/// signed on the outside; zigzag keeps small magnitudes cheap either way).
struct DeltaState {
  std::uint64_t seq = 0;
  std::uint64_t io = 0;
  std::uint64_t from_router = 0;
  std::uint64_t to_router = 0;
  std::uint64_t logged_time = 0;
};

}  // namespace

void encode_shard_frame(std::span<const ShardMessage> batch, std::vector<std::uint8_t>& out) {
  std::size_t prefix = open_frame(out);
  out.push_back(static_cast<std::uint8_t>(ShardFrameType::kCrossBatch));

  // Interned channel-key table, first-appearance order (deterministic: the
  // batch contents alone decide the encoding, not any map iteration order).
  std::vector<const std::string*> keys;
  std::vector<std::uint32_t> key_index(batch.size());
  {
    std::unordered_map<std::string_view, std::uint32_t> seen;
    seen.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      auto [it, inserted] =
          seen.emplace(batch[i].channel, static_cast<std::uint32_t>(keys.size()));
      if (inserted) keys.push_back(&batch[i].channel);
      key_index[i] = it->second;
    }
  }
  put_varint(out, keys.size());
  for (const std::string* key : keys) {
    put_varint(out, key->size());
    out.insert(out.end(), key->begin(), key->end());
  }

  put_varint(out, batch.size());
  DeltaState prev;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ShardMessage& m = batch[i];
    assert(m.is_send);
    put_varint(out, key_index[i]);
    put_zigzag(out, static_cast<std::int64_t>(m.seq - prev.seq));
    put_zigzag(out, static_cast<std::int64_t>(m.io - prev.io));
    put_zigzag(out, static_cast<std::int64_t>(m.from_router - prev.from_router));
    put_zigzag(out, static_cast<std::int64_t>(m.to_router - prev.to_router));
    put_zigzag(out, static_cast<std::int64_t>(static_cast<std::uint64_t>(m.logged_time) -
                                              prev.logged_time));
    prev = {m.seq, m.io, m.from_router, m.to_router, static_cast<std::uint64_t>(m.logged_time)};
  }
  seal_frame(out, prefix);
}

std::size_t shard_frame_size(std::span<const std::uint8_t> buffer) {
  if (buffer.size() < 4) return 0;
  std::size_t payload = static_cast<std::size_t>(buffer[0]) |
                        static_cast<std::size_t>(buffer[1]) << 8 |
                        static_cast<std::size_t>(buffer[2]) << 16 |
                        static_cast<std::size_t>(buffer[3]) << 24;
  return 4 + payload;
}

bool decode_shard_frame(std::span<const std::uint8_t> frame, std::vector<ShardMessage>& out) {
  out.clear();
  if (frame.size() < 5) return false;  // prefix + type byte
  std::size_t payload = shard_frame_size(frame);
  if (payload != frame.size()) return false;  // truncated or trailing bytes
  if (payload - 4 > kMaxShardFramePayload) return false;

  std::size_t pos = 4;
  if (frame[pos++] != static_cast<std::uint8_t>(ShardFrameType::kCrossBatch)) return false;

  std::uint64_t key_count = 0;
  if (!get_varint(frame, pos, key_count)) return false;
  if (key_count > frame.size() - pos) return false;
  std::vector<std::string> keys;
  keys.reserve(key_count);
  for (std::uint64_t i = 0; i < key_count; ++i) {
    std::uint64_t len = 0;
    if (!get_varint(frame, pos, len)) return false;
    if (len > frame.size() - pos) return false;
    keys.emplace_back(reinterpret_cast<const char*>(frame.data() + pos), len);
    pos += len;
  }

  std::uint64_t event_count = 0;
  if (!get_varint(frame, pos, event_count)) return false;
  // Each event costs >= 6 bytes (5 varints + key index).
  if (event_count > frame.size() - pos) return false;
  out.reserve(event_count);
  DeltaState prev;
  for (std::uint64_t i = 0; i < event_count; ++i) {
    std::uint64_t key_idx = 0;
    if (!get_varint(frame, pos, key_idx)) return false;
    if (key_idx >= keys.size()) return false;
    std::int64_t dseq = 0, dio = 0, dfrom = 0, dto = 0, dtime = 0;
    if (!get_zigzag(frame, pos, dseq) || !get_zigzag(frame, pos, dio) ||
        !get_zigzag(frame, pos, dfrom) || !get_zigzag(frame, pos, dto) ||
        !get_zigzag(frame, pos, dtime)) {
      return false;
    }
    prev.seq += static_cast<std::uint64_t>(dseq);
    prev.io += static_cast<std::uint64_t>(dio);
    prev.from_router += static_cast<std::uint64_t>(dfrom);
    prev.to_router += static_cast<std::uint64_t>(dto);
    prev.logged_time += static_cast<std::uint64_t>(dtime);
    ShardMessage m;
    m.seq = prev.seq;
    m.io = prev.io;
    m.from_router = static_cast<RouterId>(prev.from_router);
    m.to_router = static_cast<RouterId>(prev.to_router);
    m.logged_time = static_cast<SimTime>(prev.logged_time);
    m.channel = keys[key_idx];
    out.push_back(std::move(m));
  }
  return pos == frame.size();
}

}  // namespace hbguard
