#include "hbguard/capture/trace_io.hpp"

#include <cctype>
#include <charconv>
#include <istream>
#include <limits>
#include <ostream>

namespace hbguard {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

const char* kind_name(IoKind kind) {
  switch (kind) {
    case IoKind::kConfigChange: return "config";
    case IoKind::kHardwareStatus: return "hardware";
    case IoKind::kRecvAdvert: return "recv";
    case IoKind::kRibUpdate: return "rib";
    case IoKind::kFibUpdate: return "fib";
    case IoKind::kSendAdvert: return "send";
  }
  return "?";
}

std::optional<IoKind> kind_from(std::string_view name) {
  if (name == "config") return IoKind::kConfigChange;
  if (name == "hardware") return IoKind::kHardwareStatus;
  if (name == "recv") return IoKind::kRecvAdvert;
  if (name == "rib") return IoKind::kRibUpdate;
  if (name == "fib") return IoKind::kFibUpdate;
  if (name == "send") return IoKind::kSendAdvert;
  return std::nullopt;
}

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kConnected: return "connected";
    case Protocol::kStatic: return "static";
    case Protocol::kEbgp: return "ebgp";
    case Protocol::kIbgp: return "ibgp";
    case Protocol::kOspf: return "ospf";
  }
  return "?";
}

std::optional<Protocol> protocol_from(std::string_view name) {
  if (name == "connected") return Protocol::kConnected;
  if (name == "static") return Protocol::kStatic;
  if (name == "ebgp") return Protocol::kEbgp;
  if (name == "ibgp") return Protocol::kIbgp;
  if (name == "ospf") return Protocol::kOspf;
  return std::nullopt;
}

const char* action_name(FibEntry::Action action) {
  switch (action) {
    case FibEntry::Action::kForward: return "forward";
    case FibEntry::Action::kExternal: return "external";
    case FibEntry::Action::kLocal: return "local";
    case FibEntry::Action::kDrop: return "drop";
  }
  return "?";
}

std::optional<FibEntry::Action> action_from(std::string_view name) {
  if (name == "forward") return FibEntry::Action::kForward;
  if (name == "external") return FibEntry::Action::kExternal;
  if (name == "local") return FibEntry::Action::kLocal;
  if (name == "drop") return FibEntry::Action::kDrop;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Single-pass record reader. The grammar is a JSON subset — objects, arrays,
// strings (escapes \" \\ \n \t \uXXXX), integers, booleans; no null, no
// floats — and the reader walks it once, writing each known key's value
// straight into the IoRecord. String values are views into the line, copied
// into a scratch buffer only when they contain escapes. Unknown keys and
// values of the wrong type are validated exactly as a kept value would be,
// then dropped; when a key repeats, its first occurrence wins.

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Top-level keys, in to_json_line's emission order (lookups start after the
// previous match, so a writer-ordered line matches each key first try).
enum Field : int {
  kId, kRouter, kKind, kLoggedTime, kSeq, kProtocol, kPrefix,
  kSession, kPeer, kWithdraw, kLocalPref, kDetail, kConfigVersion, kLink,
  kLinkUp, kFibBlocked, kFibReset, kFibEntry, kTrueTime, kMessageId, kTrueCauses,
  kFieldCount
};
constexpr std::string_view kFieldNames[kFieldCount] = {
    "id",      "router", "kind",     "logged_time", "seq",        "protocol",       "prefix",
    "session", "peer",   "withdraw", "local_pref",  "detail",     "config_version", "link",
    "link_up", "fib_blocked", "fib_reset", "fib_entry", "true_time", "message_id", "true_causes"};

// fib_entry's keys.
enum FibField : int { kFibPrefix, kFibAction, kFibNextHop, kFibSession, kFibSource, kFibFieldCount };
constexpr std::string_view kFibFieldNames[kFibFieldCount] = {
    "prefix", "action", "next_hop", "external_session", "source"};

template <std::size_t N>
int match_key(const std::string_view (&names)[N], std::string_view key, std::size_t& hint) {
  for (std::size_t i = 0; i < N; ++i) {
    std::size_t field = (hint + i) % N;
    if (names[field] == key) {
      hint = field + 1;
      return static_cast<int>(field);
    }
  }
  return -1;
}

class RecordLineParser {
 public:
  explicit RecordLineParser(std::string_view text) : text_(text) {}

  TraceLineStatus parse(IoRecord& out, std::string& error);

 private:
  struct Value {
    enum class Type { kContainer, kBool, kInt, kString } type = Type::kContainer;
    bool boolean = false;
    std::int64_t integer = 0;
    std::string_view string;  // into the line or buffer_; valid until the next string
  };

  /// What the record's fields say, kept until the line is fully read so the
  /// checks run in a fixed order whatever the key order.
  struct Found {
    std::uint32_t seen = 0;  // bit per Field: first occurrence consumed
    bool id = false;
    bool router = false;
    bool kind = false;
    std::optional<IoKind> kind_value;
    std::string bad_kind;
    std::optional<std::int64_t> seq;
    bool true_time = false;
    std::optional<std::string> bad_prefix;
    std::optional<FibEntry> fib;
    bool bad_fib = false;  // first fib_entry was an object without prefix or action
    const char* out_of_range = nullptr;  // first integer field its type cannot hold
  };

  /// Flag `name` when `value` falls outside [min, 2^32): ids and router,
  /// link and local-pref fields are 32-bit, and a cast would wrap them.
  static void check_u32(Found& found, const char* name, std::int64_t value, std::int64_t min = 0) {
    if (found.out_of_range == nullptr &&
        (value < min || value > std::int64_t{std::numeric_limits<std::uint32_t>::max()})) {
      found.out_of_range = name;
    }
  }

  bool fail(std::string_view message) {
    if (error_.empty()) error_ = std::string(message) + " at offset " + std::to_string(pos_);
    return false;
  }
  void skip_ws() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }
  bool next_is(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }
  bool consume(char c) {
    if (!next_is(c)) return false;
    ++pos_;
    return true;
  }
  bool expect(char c) { return consume(c) || fail(std::string("expected '") + c + "'"); }

  bool parse_string(std::string_view& out);
  bool parse_int(std::int64_t& out);
  bool parse_bool(bool& out);
  /// One value of any type; `depth` counts the containers around it.
  /// Containers are validated and skipped.
  bool parse_value(Value& out, int depth);
  bool skip_container(int depth);
  bool parse_record(IoRecord& record, Found& found);
  bool parse_field(Field field, IoRecord& record, Found& found);
  bool parse_causes(std::vector<IoId>& causes);
  bool parse_fib_entry(Found& found);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
  std::string buffer_;  // decoded form of the current escaped string
};

bool RecordLineParser::parse_string(std::string_view& out) {
  if (!expect('"')) return false;
  std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') ++pos_;
  if (pos_ >= text_.size()) return fail("unterminated string");
  if (text_[pos_] == '"') {
    out = text_.substr(start, pos_ - start);
    ++pos_;
    return true;
  }
  buffer_.assign(text_.data() + start, pos_ - start);
  while (pos_ < text_.size()) {
    char c = text_[pos_++];
    if (c == '"') {
      out = buffer_;
      return true;
    }
    if (c != '\\') {
      buffer_ += c;
      continue;
    }
    if (pos_ >= text_.size()) return fail("bad escape");
    switch (text_[pos_++]) {
      case '"': buffer_ += '"'; break;
      case '\\': buffer_ += '\\'; break;
      case 'n': buffer_ += '\n'; break;
      case 't': buffer_ += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
        // All four bytes are consumed; the value is their leading hex
        // digits (at least one), folded to 7 bits.
        unsigned value = 0;
        int digits = 0;
        while (digits < 4 && hex_value(text_[pos_ + digits]) >= 0) {
          value = value * 16 + static_cast<unsigned>(hex_value(text_[pos_ + digits]));
          ++digits;
        }
        if (digits == 0) return fail("bad \\u escape");
        pos_ += 4;
        buffer_ += static_cast<char>(value & 0x7f);
        break;
      }
      default:
        return fail("unknown escape");
    }
  }
  return fail("unterminated string");
}

bool RecordLineParser::parse_int(std::int64_t& out) {
  std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  auto [end, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, out);
  if (ec != std::errc{} || end != text_.data() + pos_) return fail("bad number");
  return true;
}

bool RecordLineParser::parse_bool(bool& out) {
  if (text_.substr(pos_, 4) == "true") {
    out = true;
    pos_ += 4;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    out = false;
    pos_ += 5;
    return true;
  }
  return fail("bad literal");
}

bool RecordLineParser::parse_value(Value& out, int depth) {
  skip_ws();
  if (pos_ >= text_.size()) return fail("unexpected end");
  char c = text_[pos_];
  if (c == '{' || c == '[') {
    out.type = Value::Type::kContainer;
    return skip_container(depth + 1);
  }
  if (c == '"') {
    out.type = Value::Type::kString;
    return parse_string(out.string);
  }
  if (c == 't' || c == 'f') {
    out.type = Value::Type::kBool;
    return parse_bool(out.boolean);
  }
  if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
    out.type = Value::Type::kInt;
    return parse_int(out.integer);
  }
  return fail("unexpected character");
}

bool RecordLineParser::skip_container(int depth) {
  if (depth > kMaxJsonDepth) return fail("nesting too deep");
  const bool object = text_[pos_] == '{';
  const char close = object ? '}' : ']';
  ++pos_;
  if (consume(close)) return true;
  do {
    std::string_view key;
    if (object && (!parse_string(key) || !expect(':'))) return false;
    Value ignored;
    if (!parse_value(ignored, depth)) return false;
  } while (consume(','));
  return expect(close);
}

bool RecordLineParser::parse_causes(std::vector<IoId>& causes) {
  ++pos_;  // '['
  if (consume(']')) return true;
  do {
    Value value;
    if (!parse_value(value, 2)) return false;
    if (value.type == Value::Type::kInt) causes.push_back(static_cast<IoId>(value.integer));
  } while (consume(','));
  return expect(']');
}

bool RecordLineParser::parse_fib_entry(Found& found) {
  ++pos_;  // '{'
  FibEntry entry;
  bool prefix = false;
  bool action = false;
  if (consume('}')) {
    found.bad_fib = true;
    return true;
  }
  std::uint32_t seen = 0;
  std::size_t hint = 0;
  do {
    std::string_view key;
    if (!parse_string(key) || !expect(':')) return false;
    int field = match_key(kFibFieldNames, key, hint);
    bool first = field >= 0 && (seen & (1u << field)) == 0;
    if (first) seen |= 1u << field;
    Value value;
    if (!parse_value(value, 2)) return false;
    if (!first) continue;
    bool is_string = value.type == Value::Type::kString;
    switch (field) {
      case kFibPrefix:
        if (auto parsed = is_string ? Prefix::parse(value.string) : std::nullopt) {
          entry.prefix = *parsed;
          prefix = true;
        }
        break;
      case kFibAction:
        if (auto parsed = is_string ? action_from(value.string) : std::nullopt) {
          entry.action = *parsed;
          action = true;
        }
        break;
      case kFibNextHop:
        if (value.type == Value::Type::kInt) {
          check_u32(found, "next_hop", value.integer);
          entry.next_hop = static_cast<RouterId>(value.integer);
        }
        break;
      case kFibSession:
        if (is_string) entry.external_session.assign(value.string);
        break;
      case kFibSource:
        if (auto parsed = is_string ? protocol_from(value.string) : std::nullopt) {
          entry.source = *parsed;
        }
        break;
      default:
        break;
    }
  } while (consume(','));
  if (prefix && action) {
    found.fib = std::move(entry);
  } else {
    found.bad_fib = true;
  }
  return expect('}');
}

bool RecordLineParser::parse_field(Field field, IoRecord& record, Found& found) {
  if (field == kTrueCauses && next_is('[')) return parse_causes(record.true_causes);
  if (field == kFibEntry && next_is('{')) return parse_fib_entry(found);
  Value value;
  if (!parse_value(value, 1)) return false;
  const bool is_int = value.type == Value::Type::kInt;
  const bool is_string = value.type == Value::Type::kString;
  const bool is_true = value.type == Value::Type::kBool && value.boolean;
  const std::int64_t integer = value.integer;
  switch (field) {
    case kId:
      found.id = is_int;
      if (is_int) {
        check_u32(found, "id", integer, /*min=*/1);
        record.id = static_cast<IoId>(integer);
      }
      break;
    case kRouter:
      found.router = is_int;
      if (is_int) {
        check_u32(found, "router", integer);
        record.router = static_cast<RouterId>(integer);
      }
      break;
    case kKind:
      found.kind = is_string;
      if (is_string) {
        found.kind_value = kind_from(value.string);
        if (!found.kind_value) found.bad_kind.assign(value.string);
      }
      break;
    case kLoggedTime:
      if (is_int) record.logged_time = integer;
      break;
    case kTrueTime:
      found.true_time = is_int;
      if (is_int) record.true_time = integer;
      break;
    case kSeq:
      if (is_int) found.seq = integer;
      break;
    case kProtocol:
      if (is_string) {
        if (auto parsed = protocol_from(value.string)) record.protocol = *parsed;
      }
      break;
    case kPrefix:
      if (is_string) {
        record.prefix = Prefix::parse(value.string);
        if (!record.prefix) found.bad_prefix.emplace(value.string);
      }
      break;
    case kSession:
      if (is_string) record.session.assign(value.string);
      break;
    case kPeer:
      if (is_int) {
        check_u32(found, "peer", integer);
        record.peer = static_cast<RouterId>(integer);
      }
      break;
    case kWithdraw:
      record.withdraw = is_true;
      break;
    case kLocalPref:
      if (is_int) {
        check_u32(found, "local_pref", integer);
        record.local_pref = static_cast<std::uint32_t>(integer);
      }
      break;
    case kDetail:
      if (is_string) record.detail.assign(value.string);
      break;
    case kConfigVersion:
      if (is_int) record.config_version = static_cast<ConfigVersion>(integer);
      break;
    case kLink:
      if (is_int) {
        check_u32(found, "link", integer);
        record.link = static_cast<LinkId>(integer);
      }
      break;
    case kLinkUp:
      record.link_up = is_true;
      break;
    case kFibBlocked:
      record.fib_blocked = is_true;
      break;
    case kFibReset:
      record.fib_reset = is_true;
      break;
    case kMessageId:
      if (is_int) record.message_id = static_cast<std::uint64_t>(integer);
      break;
    case kFibEntry:  // not an object: no entry
    case kTrueCauses:  // not an array: no causes
    case kFieldCount:
      break;
  }
  return true;
}

bool RecordLineParser::parse_record(IoRecord& record, Found& found) {
  ++pos_;  // '{'
  if (consume('}')) return true;
  std::size_t hint = 0;
  do {
    std::string_view key;
    if (!parse_string(key) || !expect(':')) return false;
    int field = match_key(kFieldNames, key, hint);
    if (field >= 0 && (found.seen & (1u << field)) == 0) {
      found.seen |= 1u << field;
      if (!parse_field(static_cast<Field>(field), record, found)) return false;
    } else {
      Value ignored;
      if (!parse_value(ignored, 1)) return false;
    }
  } while (consume(','));
  return expect('}');
}

TraceLineStatus RecordLineParser::parse(IoRecord& out, std::string& error) {
  error.clear();
  skip_ws();
  if (pos_ == text_.size()) return TraceLineStatus::kBlank;
  out = IoRecord{};
  if (text_[pos_] != '{') {
    error = "not an object";
    return TraceLineStatus::kError;
  }
  Found found;
  if (!parse_record(out, found)) {
    error = std::move(error_);
    return TraceLineStatus::kError;
  }
  skip_ws();
  if (pos_ != text_.size()) {
    error = "trailing bytes after the record at offset " + std::to_string(pos_);
    return TraceLineStatus::kError;
  }
  if (!found.id || !found.router || !found.kind) {
    error = "missing id/router/kind";
    return TraceLineStatus::kError;
  }
  if (!found.kind_value) {
    error = "unknown kind '" + found.bad_kind + "'";
    return TraceLineStatus::kError;
  }
  // A wrapped id would size the id-indexed tables downstream (HBG,
  // snapshotter) by its value; a wrapped router id aliases another router.
  if (found.out_of_range != nullptr) {
    error = std::string(found.out_of_range) + " out of range";
    return TraceLineStatus::kError;
  }
  out.kind = *found.kind_value;
  if (!found.true_time) out.true_time = out.logged_time;
  // A record without a parseable seq cannot be placed in its router's log
  // order; defaulting it (to 0) would silently corrupt per-router replay
  // on archive ingest, so reject the record instead.
  if (!found.seq || *found.seq < 0) {
    error = "missing or invalid seq";
    return TraceLineStatus::kError;
  }
  out.router_seq = static_cast<std::uint64_t>(*found.seq);
  if (found.bad_prefix) {
    error = "bad prefix '" + *found.bad_prefix + "'";
    return TraceLineStatus::kError;
  }
  if (found.bad_fib) {
    error = "bad fib_entry";
    return TraceLineStatus::kError;
  }
  out.fib_entry = std::move(found.fib);
  return TraceLineStatus::kRecord;
}

}  // namespace

std::string to_json_line(const IoRecord& record, const TraceWriteOptions& options) {
  std::string out = "{";
  auto add_int = [&](const char* name, std::int64_t value) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(value);
  };
  auto add_string = [&](const char* name, std::string_view value) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    append_escaped(out, value);
  };
  auto add_bool = [&](const char* name, bool value) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += value ? "true" : "false";
  };

  add_int("id", static_cast<std::int64_t>(record.id));
  add_int("router", record.router);
  add_string("kind", kind_name(record.kind));
  add_int("logged_time", record.logged_time);
  add_int("seq", static_cast<std::int64_t>(record.router_seq));
  add_string("protocol", protocol_name(record.protocol));
  if (record.prefix.has_value()) add_string("prefix", record.prefix->to_string());
  if (!record.session.empty()) add_string("session", record.session);
  if (record.peer != kInvalidRouter) add_int("peer", record.peer);
  if (record.withdraw) add_bool("withdraw", true);
  if (record.local_pref.has_value()) add_int("local_pref", *record.local_pref);
  if (!record.detail.empty()) add_string("detail", record.detail);
  if (record.config_version != kNoVersion) {
    add_int("config_version", static_cast<std::int64_t>(record.config_version));
  }
  if (record.link != kInvalidLink) add_int("link", record.link);
  if (record.kind == IoKind::kHardwareStatus) add_bool("link_up", record.link_up);
  if (record.fib_blocked) add_bool("fib_blocked", true);
  if (record.fib_reset) add_bool("fib_reset", true);
  if (record.fib_entry.has_value()) {
    const FibEntry& entry = *record.fib_entry;
    if (out.size() > 1) out += ',';
    out += "\"fib_entry\":{";
    std::string inner;
    inner += "\"prefix\":";
    append_escaped(inner, entry.prefix.to_string());
    inner += ",\"action\":";
    append_escaped(inner, action_name(entry.action));
    if (entry.action == FibEntry::Action::kForward) {
      inner += ",\"next_hop\":" + std::to_string(entry.next_hop);
    }
    if (entry.action == FibEntry::Action::kExternal) {
      inner += ",\"external_session\":";
      append_escaped(inner, entry.external_session);
    }
    inner += ",\"source\":";
    append_escaped(inner, protocol_name(entry.source));
    out += inner;
    out += '}';
  }
  if (!options.redact_ground_truth) {
    add_int("true_time", record.true_time);
    if (record.message_id != 0) add_int("message_id", static_cast<std::int64_t>(record.message_id));
    if (!record.true_causes.empty()) {
      if (out.size() > 1) out += ',';
      out += "\"true_causes\":[";
      for (std::size_t i = 0; i < record.true_causes.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(record.true_causes[i]);
      }
      out += ']';
    }
  }
  out += '}';
  return out;
}

void write_trace(std::ostream& out, std::span<const IoRecord> records,
                 const TraceWriteOptions& options) {
  for (const IoRecord& record : records) {
    out << to_json_line(record, options) << '\n';
  }
}

TraceLineStatus parse_trace_line(std::string_view line, IoRecord& out, std::string& error) {
  return RecordLineParser(line).parse(out, error);
}

bool stream_trace(std::istream& in, const std::function<bool(IoRecord&&)>& visit,
                  std::vector<TraceParseError>* errors) {
  std::string line;
  std::string error;
  IoRecord record;
  std::size_t line_number = 0;
  bool clean = true;
  while (std::getline(in, line)) {
    ++line_number;
    switch (parse_trace_line(line, record, error)) {
      case TraceLineStatus::kBlank:
        break;
      case TraceLineStatus::kError:
        clean = false;
        if (errors != nullptr) errors->push_back({line_number, error});
        break;
      case TraceLineStatus::kRecord:
        if (!visit(std::move(record))) return clean;
        record = IoRecord{};
        break;
    }
  }
  return clean;
}

TraceParseResult parse_trace(std::istream& in) {
  TraceParseResult result;
  stream_trace(
      in,
      [&](IoRecord&& record) {
        result.records.push_back(std::move(record));
        return true;
      },
      &result.errors);
  return result;
}

TraceParseResult parse_trace_text(const std::string& text) {
  // Split in place — no istringstream copy of a potentially huge buffer.
  TraceParseResult result;
  std::string_view rest = text;
  std::string error;
  IoRecord record;
  std::size_t line_number = 0;
  while (!rest.empty()) {
    std::size_t cut = rest.find('\n');
    std::string_view line = rest.substr(0, cut);
    rest = cut == std::string_view::npos ? std::string_view{} : rest.substr(cut + 1);
    ++line_number;
    switch (parse_trace_line(line, record, error)) {
      case TraceLineStatus::kBlank:
        break;
      case TraceLineStatus::kError:
        result.errors.push_back({line_number, error});
        break;
      case TraceLineStatus::kRecord:
        result.records.push_back(std::move(record));
        record = IoRecord{};
        break;
    }
  }
  return result;
}

}  // namespace hbguard
