#include "hbguard/capture/trace_archive.hpp"

#include "hbguard/util/wire.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <unordered_map>

namespace hbguard {

namespace {

using wire::get_varint;
using wire::get_zigzag;
using wire::put_varint;
using wire::put_zigzag;

// Field-presence bitmap. Unknown bits are rejected on decode so a future
// format revision can claim them without old readers mis-parsing.
constexpr std::uint64_t kHasPrefix = 1u << 0;
constexpr std::uint64_t kWithdraw = 1u << 1;
constexpr std::uint64_t kHasLocalPref = 1u << 2;
constexpr std::uint64_t kLinkUp = 1u << 3;
constexpr std::uint64_t kFibBlocked = 1u << 4;
constexpr std::uint64_t kFibReset = 1u << 5;
constexpr std::uint64_t kHasFibEntry = 1u << 6;
constexpr std::uint64_t kHasSession = 1u << 7;
constexpr std::uint64_t kHasDetail = 1u << 8;
constexpr std::uint64_t kHasConfigVersion = 1u << 9;
constexpr std::uint64_t kHasLink = 1u << 10;
constexpr std::uint64_t kHasPeer = 1u << 11;
constexpr std::uint64_t kHasMessageId = 1u << 12;
constexpr std::uint64_t kHasTrueCauses = 1u << 13;
constexpr std::uint64_t kTrueTimeDiffers = 1u << 14;
constexpr std::uint64_t kKnownFlags = (1u << 15) - 1;

/// Reference point for the per-record deltas; unsigned so arithmetic wraps.
struct DeltaState {
  std::uint64_t id = 0;
  std::uint64_t router = 0;
  std::uint64_t logged_time = 0;
  std::uint64_t router_seq = 0;
};

inline std::int64_t wrapping_delta(std::uint64_t current, std::uint64_t previous) {
  return static_cast<std::int64_t>(current - previous);
}

inline bool canonical_prefix(std::uint64_t bits, std::uint64_t length, Prefix& out) {
  if (length > 32 || bits > 0xffffffffULL) return false;
  std::uint32_t address = static_cast<std::uint32_t>(bits);
  std::uint32_t host_mask = length >= 32 ? 0 : (0xffffffffu >> length);
  if ((address & host_mask) != 0) return false;  // non-canonical
  out = Prefix(IpAddress(address), static_cast<std::uint8_t>(length));
  return true;
}

/// Per-frame string interning for the encoder: first appearance assigns
/// the next table slot.
struct StringTable {
  std::vector<std::string_view> ordered;
  std::unordered_map<std::string_view, std::uint32_t> ids;

  std::uint32_t index_of(std::string_view text) {
    auto [it, fresh] = ids.try_emplace(text, static_cast<std::uint32_t>(ordered.size()));
    if (fresh) ordered.push_back(text);
    return it->second;
  }
};

std::uint64_t record_flags(const IoRecord& record, bool redact) {
  std::uint64_t flags = 0;
  if (record.prefix.has_value()) flags |= kHasPrefix;
  if (record.withdraw) flags |= kWithdraw;
  if (record.local_pref.has_value()) flags |= kHasLocalPref;
  if (record.link_up) flags |= kLinkUp;
  if (record.fib_blocked) flags |= kFibBlocked;
  if (record.fib_reset) flags |= kFibReset;
  if (record.fib_entry.has_value()) flags |= kHasFibEntry;
  if (!record.session.empty()) flags |= kHasSession;
  if (!record.detail.empty()) flags |= kHasDetail;
  if (record.config_version != kNoVersion) flags |= kHasConfigVersion;
  if (record.link != kInvalidLink) flags |= kHasLink;
  if (record.peer != kInvalidRouter) flags |= kHasPeer;
  if (!redact) {
    if (record.message_id != 0) flags |= kHasMessageId;
    if (!record.true_causes.empty()) flags |= kHasTrueCauses;
    if (record.true_time != record.logged_time) flags |= kTrueTimeDiffers;
  }
  return flags;
}

void encode_record(const IoRecord& record, std::uint64_t flags, StringTable& strings,
                   DeltaState& state, std::vector<std::uint8_t>& out) {
  put_varint(out, flags);
  out.push_back(static_cast<std::uint8_t>(static_cast<unsigned>(record.kind) |
                                          (static_cast<unsigned>(record.protocol) << 3)));
  put_zigzag(out, wrapping_delta(record.id, state.id));
  put_zigzag(out, wrapping_delta(record.router, state.router));
  put_zigzag(out, wrapping_delta(static_cast<std::uint64_t>(record.logged_time),
                                 state.logged_time));
  put_zigzag(out, wrapping_delta(record.router_seq, state.router_seq));
  state.id = record.id;
  state.router = record.router;
  state.logged_time = static_cast<std::uint64_t>(record.logged_time);
  state.router_seq = record.router_seq;

  if (flags & kTrueTimeDiffers) {
    put_zigzag(out, wrapping_delta(static_cast<std::uint64_t>(record.true_time),
                                   static_cast<std::uint64_t>(record.logged_time)));
  }
  if (flags & kHasPrefix) {
    put_varint(out, record.prefix->address().bits());
    put_varint(out, record.prefix->length());
  }
  if (flags & kHasSession) put_varint(out, strings.index_of(record.session));
  if (flags & kHasPeer) put_varint(out, record.peer);
  if (flags & kHasLocalPref) put_varint(out, *record.local_pref);
  if (flags & kHasDetail) put_varint(out, strings.index_of(record.detail));
  if (flags & kHasConfigVersion) {
    put_varint(out, static_cast<std::uint64_t>(record.config_version));
  }
  if (flags & kHasLink) put_varint(out, record.link);
  if (flags & kHasFibEntry) {
    const FibEntry& entry = *record.fib_entry;
    out.push_back(static_cast<std::uint8_t>(static_cast<unsigned>(entry.action) |
                                            (static_cast<unsigned>(entry.source) << 2)));
    put_varint(out, entry.prefix.address().bits());
    put_varint(out, entry.prefix.length());
    if (entry.action == FibEntry::Action::kForward) put_varint(out, entry.next_hop);
    if (entry.action == FibEntry::Action::kExternal) {
      put_varint(out, strings.index_of(entry.external_session));
    }
  }
  if (flags & kHasMessageId) put_varint(out, record.message_id);
  if (flags & kHasTrueCauses) {
    put_varint(out, record.true_causes.size());
    std::uint64_t previous = record.id;
    for (IoId cause : record.true_causes) {
      put_zigzag(out, wrapping_delta(cause, previous));
      previous = cause;
    }
  }
}

std::size_t open_frame(std::vector<std::uint8_t>& out) {
  std::size_t at = out.size();
  out.insert(out.end(), 4, 0);
  return at;
}

void seal_frame(std::vector<std::uint8_t>& out, std::size_t prefix_at) {
  std::size_t payload = out.size() - prefix_at - 4;
  assert(payload <= kMaxArchiveFramePayload);
  out[prefix_at + 0] = static_cast<std::uint8_t>(payload);
  out[prefix_at + 1] = static_cast<std::uint8_t>(payload >> 8);
  out[prefix_at + 2] = static_cast<std::uint8_t>(payload >> 16);
  out[prefix_at + 3] = static_cast<std::uint8_t>(payload >> 24);
}

bool decode_record(std::span<const std::uint8_t> payload, std::size_t& pos,
                   std::span<const std::string_view> strings, DeltaState& state,
                   std::vector<IoId>& causes_scratch, ArchiveRecord& out) {
  std::uint64_t flags = 0;
  if (!get_varint(payload, pos, flags)) return false;
  if ((flags & ~kKnownFlags) != 0) return false;
  if (pos >= payload.size()) return false;
  std::uint8_t kind_protocol = payload[pos++];
  unsigned kind = kind_protocol & 0x7;
  unsigned protocol = kind_protocol >> 3;
  if (kind > static_cast<unsigned>(IoKind::kSendAdvert)) return false;
  if (protocol > static_cast<unsigned>(Protocol::kOspf)) return false;

  out = ArchiveRecord{};
  out.kind = static_cast<IoKind>(kind);
  out.protocol = static_cast<Protocol>(protocol);

  // As the JSONL reader requires, an id lies in [1, 2^32) and a router
  // within 32 bits: a cast would otherwise wrap them.
  std::int64_t delta = 0;
  if (!get_zigzag(payload, pos, delta)) return false;
  state.id += static_cast<std::uint64_t>(delta);
  if (state.id == 0 || state.id > 0xffffffffULL) return false;
  out.id = state.id;
  if (!get_zigzag(payload, pos, delta)) return false;
  state.router += static_cast<std::uint64_t>(delta);
  if (state.router > 0xffffffffULL) return false;
  out.router = static_cast<RouterId>(state.router);
  if (!get_zigzag(payload, pos, delta)) return false;
  state.logged_time += static_cast<std::uint64_t>(delta);
  out.logged_time = static_cast<SimTime>(state.logged_time);
  if (!get_zigzag(payload, pos, delta)) return false;
  state.router_seq += static_cast<std::uint64_t>(delta);
  out.router_seq = state.router_seq;

  out.true_time = out.logged_time;
  if (flags & kTrueTimeDiffers) {
    if (!get_zigzag(payload, pos, delta)) return false;
    out.true_time = static_cast<SimTime>(static_cast<std::uint64_t>(out.logged_time) +
                                         static_cast<std::uint64_t>(delta));
  }
  if (flags & kHasPrefix) {
    std::uint64_t bits = 0, length = 0;
    if (!get_varint(payload, pos, bits) || !get_varint(payload, pos, length)) return false;
    Prefix prefix;
    if (!canonical_prefix(bits, length, prefix)) return false;
    out.prefix = prefix;
  }
  out.withdraw = (flags & kWithdraw) != 0;
  out.link_up = (flags & kLinkUp) != 0;
  out.fib_blocked = (flags & kFibBlocked) != 0;
  out.fib_reset = (flags & kFibReset) != 0;
  if (flags & kHasSession) {
    std::uint64_t index = 0;
    if (!get_varint(payload, pos, index) || index >= strings.size()) return false;
    out.session = strings[index];
  }
  if (flags & kHasPeer) {
    std::uint64_t peer = 0;
    if (!get_varint(payload, pos, peer) || peer > kInvalidRouter) return false;
    out.peer = static_cast<RouterId>(peer);
  }
  if (flags & kHasLocalPref) {
    std::uint64_t local_pref = 0;
    if (!get_varint(payload, pos, local_pref) || local_pref > 0xffffffffULL) return false;
    out.local_pref = static_cast<std::uint32_t>(local_pref);
  }
  if (flags & kHasDetail) {
    std::uint64_t index = 0;
    if (!get_varint(payload, pos, index) || index >= strings.size()) return false;
    out.detail = strings[index];
  }
  if (flags & kHasConfigVersion) {
    std::uint64_t version = 0;
    if (!get_varint(payload, pos, version)) return false;
    out.config_version = static_cast<ConfigVersion>(version);
  }
  if (flags & kHasLink) {
    std::uint64_t link = 0;
    if (!get_varint(payload, pos, link) || link > kInvalidLink) return false;
    out.link = static_cast<LinkId>(link);
  }
  if (flags & kHasFibEntry) {
    if (pos >= payload.size()) return false;
    std::uint8_t action_source = payload[pos++];
    unsigned action = action_source & 0x3;
    unsigned source = action_source >> 2;
    if (source > static_cast<unsigned>(Protocol::kOspf)) return false;
    std::uint64_t bits = 0, length = 0;
    if (!get_varint(payload, pos, bits) || !get_varint(payload, pos, length)) return false;
    ArchiveFibEntry entry;
    if (!canonical_prefix(bits, length, entry.prefix)) return false;
    entry.action = static_cast<FibEntry::Action>(action);
    entry.source = static_cast<Protocol>(source);
    if (entry.action == FibEntry::Action::kForward) {
      std::uint64_t next_hop = 0;
      if (!get_varint(payload, pos, next_hop) || next_hop > kInvalidRouter) return false;
      entry.next_hop = static_cast<RouterId>(next_hop);
    }
    if (entry.action == FibEntry::Action::kExternal) {
      std::uint64_t index = 0;
      if (!get_varint(payload, pos, index) || index >= strings.size()) return false;
      entry.external_session = strings[index];
    }
    out.has_fib_entry = true;
    out.fib_entry = entry;
  }
  if (flags & kHasMessageId) {
    if (!get_varint(payload, pos, out.message_id)) return false;
  }
  causes_scratch.clear();
  if (flags & kHasTrueCauses) {
    std::uint64_t count = 0;
    if (!get_varint(payload, pos, count)) return false;
    // Each cause needs at least one byte; a hostile count must not size an
    // allocation beyond the remaining payload.
    if (count > payload.size() - pos) return false;
    causes_scratch.reserve(count);
    std::uint64_t previous = out.id;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!get_zigzag(payload, pos, delta)) return false;
      previous += static_cast<std::uint64_t>(delta);
      causes_scratch.push_back(previous);
    }
    out.true_causes = causes_scratch;
  }
  return true;
}

}  // namespace

FibEntry ArchiveFibEntry::materialize() const {
  FibEntry entry;
  entry.prefix = prefix;
  entry.action = action;
  entry.next_hop = next_hop;
  entry.external_session = std::string(external_session);
  entry.source = source;
  return entry;
}

ArchiveRecord ArchiveRecord::view_of(const IoRecord& record) {
  ArchiveRecord view;
  view.id = record.id;
  view.router = record.router;
  view.kind = record.kind;
  view.true_time = record.true_time;
  view.logged_time = record.logged_time;
  view.router_seq = record.router_seq;
  view.prefix = record.prefix;
  view.protocol = record.protocol;
  view.session = record.session;
  view.peer = record.peer;
  view.withdraw = record.withdraw;
  view.local_pref = record.local_pref;
  view.detail = record.detail;
  view.config_version = record.config_version;
  view.link = record.link;
  view.link_up = record.link_up;
  view.fib_blocked = record.fib_blocked;
  view.fib_reset = record.fib_reset;
  if (record.fib_entry.has_value()) {
    view.has_fib_entry = true;
    view.fib_entry.prefix = record.fib_entry->prefix;
    view.fib_entry.action = record.fib_entry->action;
    view.fib_entry.next_hop = record.fib_entry->next_hop;
    view.fib_entry.external_session = record.fib_entry->external_session;
    view.fib_entry.source = record.fib_entry->source;
  }
  view.message_id = record.message_id;
  view.true_causes = record.true_causes;
  return view;
}

IoRecord ArchiveRecord::materialize() const {
  IoRecord record;
  record.id = id;
  record.router = router;
  record.kind = kind;
  record.true_time = true_time;
  record.logged_time = logged_time;
  record.router_seq = router_seq;
  record.prefix = prefix;
  record.protocol = protocol;
  record.session = std::string(session);
  record.peer = peer;
  record.withdraw = withdraw;
  record.local_pref = local_pref;
  record.detail = std::string(detail);
  record.config_version = config_version;
  record.link = link;
  record.link_up = link_up;
  record.fib_blocked = fib_blocked;
  record.fib_reset = fib_reset;
  if (has_fib_entry) record.fib_entry = fib_entry.materialize();
  record.message_id = message_id;
  record.true_causes.assign(true_causes.begin(), true_causes.end());
  return record;
}

void encode_archive_frame(std::span<const IoRecord> batch, std::vector<std::uint8_t>& out,
                          const TraceArchiveWriteOptions& options) {
  // Pass 1: assign string-table slots in first-appearance order (the
  // record encoder below must agree, so it reuses the same table).
  StringTable strings;
  std::vector<std::uint64_t> flags(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    flags[i] = record_flags(batch[i], options.redact_ground_truth);
    if (flags[i] & kHasSession) strings.index_of(batch[i].session);
    if (flags[i] & kHasDetail) strings.index_of(batch[i].detail);
    if ((flags[i] & kHasFibEntry) &&
        batch[i].fib_entry->action == FibEntry::Action::kExternal) {
      strings.index_of(batch[i].fib_entry->external_session);
    }
  }

  std::size_t prefix_at = open_frame(out);
  out.push_back(static_cast<std::uint8_t>(ArchiveFrameType::kRecords));
  put_varint(out, strings.ordered.size());
  for (std::string_view text : strings.ordered) {
    put_varint(out, text.size());
    out.insert(out.end(), text.begin(), text.end());
  }
  put_varint(out, batch.size());
  // Redaction needs no scrubbed copy: the flags already drop the oracle
  // fields, and true_time collapses onto logged_time (kTrueTimeDiffers off).
  DeltaState state;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    encode_record(batch[i], flags[i], strings, state, out);
  }
  seal_frame(out, prefix_at);
}

void encode_archive_end_frame(std::uint64_t total_records, std::vector<std::uint8_t>& out) {
  std::size_t prefix_at = open_frame(out);
  out.push_back(static_cast<std::uint8_t>(ArchiveFrameType::kEnd));
  put_varint(out, total_records);
  seal_frame(out, prefix_at);
}

std::size_t archive_frame_size(std::span<const std::uint8_t> buffer) {
  if (buffer.size() < 4) return 0;
  std::uint32_t payload = static_cast<std::uint32_t>(buffer[0]) |
                          (static_cast<std::uint32_t>(buffer[1]) << 8) |
                          (static_cast<std::uint32_t>(buffer[2]) << 16) |
                          (static_cast<std::uint32_t>(buffer[3]) << 24);
  return 4u + payload;
}

bool decode_archive_frame(std::span<const std::uint8_t> frame, ArchiveFrameType& type,
                          const std::function<bool(const ArchiveRecord&)>& visit,
                          std::uint64_t* end_count) {
  if (frame.size() < 5) return false;
  std::size_t total = archive_frame_size(frame);
  if (total - 4 > kMaxArchiveFramePayload) return false;
  if (total != frame.size()) return false;
  std::span<const std::uint8_t> payload = frame.subspan(4);
  std::size_t pos = 0;
  std::uint8_t raw_type = payload[pos++];
  if (raw_type == static_cast<std::uint8_t>(ArchiveFrameType::kEnd)) {
    type = ArchiveFrameType::kEnd;
    std::uint64_t count = 0;
    if (!get_varint(payload, pos, count)) return false;
    if (pos != payload.size()) return false;
    if (end_count != nullptr) *end_count = count;
    return true;
  }
  if (raw_type != static_cast<std::uint8_t>(ArchiveFrameType::kRecords)) return false;
  type = ArchiveFrameType::kRecords;

  std::uint64_t string_count = 0;
  if (!get_varint(payload, pos, string_count)) return false;
  if (string_count > payload.size() - pos) return false;  // >= 1 byte per string
  std::vector<std::string_view> strings;
  strings.reserve(string_count);
  for (std::uint64_t i = 0; i < string_count; ++i) {
    std::uint64_t length = 0;
    if (!get_varint(payload, pos, length)) return false;
    if (length > payload.size() - pos) return false;
    strings.emplace_back(reinterpret_cast<const char*>(payload.data() + pos),
                         static_cast<std::size_t>(length));
    pos += length;
  }

  std::uint64_t record_count = 0;
  if (!get_varint(payload, pos, record_count)) return false;
  if (record_count > payload.size() - pos) return false;  // >= 1 byte per record

  DeltaState state;
  std::vector<IoId> causes_scratch;
  ArchiveRecord record;
  bool stopped = false;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    if (!decode_record(payload, pos, strings, state, causes_scratch, record)) return false;
    if (!stopped && visit && !visit(record)) stopped = true;
  }
  return pos == payload.size();
}

bool decode_archive_frame(std::span<const std::uint8_t> frame, std::vector<IoRecord>& out) {
  out.clear();
  ArchiveFrameType type = ArchiveFrameType::kRecords;
  if (!decode_archive_frame(frame, type,
                            [&](const ArchiveRecord& record) {
                              out.push_back(record.materialize());
                              return true;
                            })) {
    return false;
  }
  return type == ArchiveFrameType::kRecords;
}

// ---- TraceArchiveWriter ----------------------------------------------------

TraceArchiveWriter::TraceArchiveWriter(std::ostream& out, TraceArchiveWriteOptions options)
    : out_(out), options_(options) {
  if (options_.records_per_frame == 0) options_.records_per_frame = 1;
  out_.write(kTraceArchiveMagic, sizeof(kTraceArchiveMagic));
}

TraceArchiveWriter::~TraceArchiveWriter() { finish(); }

void TraceArchiveWriter::add(const IoRecord& record) {
  batch_.push_back(record);
  ++records_;
  if (batch_.size() >= options_.records_per_frame) flush_batch();
}

void TraceArchiveWriter::flush_batch() {
  if (batch_.empty()) return;
  scratch_.clear();
  encode_archive_frame(batch_, scratch_, options_);
  out_.write(reinterpret_cast<const char*>(scratch_.data()),
             static_cast<std::streamsize>(scratch_.size()));
  batch_.clear();
}

void TraceArchiveWriter::finish() {
  if (finished_) return;
  finished_ = true;
  flush_batch();
  scratch_.clear();
  encode_archive_end_frame(records_, scratch_);
  out_.write(reinterpret_cast<const char*>(scratch_.data()),
             static_cast<std::streamsize>(scratch_.size()));
  out_.flush();
}

// ---- TraceArchiveReader ----------------------------------------------------

TraceArchiveReader::~TraceArchiveReader() { close(); }

void TraceArchiveReader::close() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

bool TraceArchiveReader::open(const std::string& path) {
  close();
  error_.clear();
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat info {};
    if (::fstat(fd, &info) == 0 && info.st_size >= 0) {
      size_ = static_cast<std::size_t>(info.st_size);
      if (size_ > 0) {
        void* mapping = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        if (mapping != MAP_FAILED) {
          data_ = static_cast<const std::uint8_t*>(mapping);
          mapped_ = true;
        }
      }
    }
    ::close(fd);
  }
  if (data_ == nullptr) {
    // mmap unavailable (or empty/odd file): buffered fallback.
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      error_ = "cannot open '" + path + "'";
      size_ = 0;
      return false;
    }
    fallback_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    data_ = fallback_.data();
    size_ = fallback_.size();
    mapped_ = false;
  }
  if (size_ < sizeof(kTraceArchiveMagic) ||
      std::memcmp(data_, kTraceArchiveMagic, sizeof(kTraceArchiveMagic)) != 0) {
    error_ = "'" + path + "' is not a trace archive (bad magic)";
    close();
    return false;
  }
  return true;
}

bool TraceArchiveReader::for_each(const std::function<bool(const ArchiveRecord&)>& visit) {
  if (data_ == nullptr) {
    error_ = "archive not open";
    return false;
  }
  std::size_t pos = sizeof(kTraceArchiveMagic);
  std::uint64_t seen = 0;
  bool stopped = false;
  while (pos < size_) {
    std::span<const std::uint8_t> rest(data_ + pos, size_ - pos);
    std::size_t frame_size = archive_frame_size(rest);
    if (frame_size == 0 || frame_size > rest.size() ||
        frame_size - 4 > kMaxArchiveFramePayload) {
      error_ = "truncated or oversized frame at offset " + std::to_string(pos);
      return false;
    }
    ArchiveFrameType type = ArchiveFrameType::kRecords;
    std::uint64_t end_count = 0;
    bool ok = decode_archive_frame(rest.subspan(0, frame_size), type,
                                   [&](const ArchiveRecord& record) {
                                     ++seen;
                                     if (stopped) return false;
                                     if (visit && !visit(record)) stopped = true;
                                     return true;
                                   },
                                   &end_count);
    if (!ok) {
      error_ = "malformed frame at offset " + std::to_string(pos);
      return false;
    }
    pos += frame_size;
    if (type == ArchiveFrameType::kEnd) {
      if (pos != size_) {
        error_ = "data after end frame at offset " + std::to_string(pos);
        return false;
      }
      if (!stopped && end_count != seen) {
        error_ = "record count mismatch: end frame says " + std::to_string(end_count) +
                 ", decoded " + std::to_string(seen);
        return false;
      }
      return true;
    }
    if (stopped) return true;  // early stop: skip the remaining frames
  }
  error_ = "archive has no end frame (truncated?)";
  return false;
}

bool TraceArchiveReader::read_all(std::vector<IoRecord>& out) {
  out.clear();
  return for_each([&](const ArchiveRecord& record) {
    out.push_back(record.materialize());
    return true;
  });
}

// ---- Converters ------------------------------------------------------------

bool convert_jsonl_to_archive(std::istream& in, std::ostream& out,
                              const TraceArchiveWriteOptions& options,
                              ArchiveConvertStats* stats, std::string* error) {
  TraceArchiveWriter writer(out, options);
  ArchiveConvertStats local;
  std::string line;
  IoRecord record;
  std::string parse_error;
  while (std::getline(in, line)) {
    TraceLineStatus status = parse_trace_line(line, record, parse_error);
    if (status == TraceLineStatus::kBlank) continue;
    if (status == TraceLineStatus::kError) {
      ++local.parse_errors;
      continue;
    }
    writer.add(record);
    ++local.records;
  }
  writer.finish();
  if (stats != nullptr) *stats = local;
  if (!out) {
    if (error != nullptr) *error = "write failure";
    return false;
  }
  return true;
}

bool convert_archive_to_jsonl(const std::string& archive_path, std::ostream& out,
                              const TraceWriteOptions& options, ArchiveConvertStats* stats,
                              std::string* error) {
  TraceArchiveReader reader;
  if (!reader.open(archive_path)) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  ArchiveConvertStats local;
  bool ok = reader.for_each([&](const ArchiveRecord& record) {
    out << to_json_line(record.materialize(), options) << '\n';
    ++local.records;
    return true;
  });
  if (stats != nullptr) *stats = local;
  if (!ok && error != nullptr) *error = reader.error();
  if (!out) {
    if (error != nullptr) *error = "write failure";
    return false;
  }
  return ok;
}

bool is_trace_archive(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kTraceArchiveMagic)] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kTraceArchiveMagic, sizeof(magic)) == 0;
}

}  // namespace hbguard
