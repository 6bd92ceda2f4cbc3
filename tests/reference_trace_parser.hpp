// Test oracle: the value-tree JSONL record parser.
//
// This is the parse_trace_line that predates the single-pass one, kept
// verbatim apart from its name and header-only form. It parses the whole
// line into a JsonValue tree (a std::map per object) and then reads the
// record's fields out of the tree. The single-pass parser must accept
// exactly the lines this one accepts — except the two it now rejects:
// nesting deeper than kMaxJsonDepth and bytes after the record object —
// and produce identical records (test_trace_io's fuzz test).
#pragma once

#include <cctype>
#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hbguard/capture/trace_io.hpp"

namespace hbguard::reference {

inline std::optional<IoKind> kind_from(std::string_view name) {
  if (name == "config") return IoKind::kConfigChange;
  if (name == "hardware") return IoKind::kHardwareStatus;
  if (name == "recv") return IoKind::kRecvAdvert;
  if (name == "rib") return IoKind::kRibUpdate;
  if (name == "fib") return IoKind::kFibUpdate;
  if (name == "send") return IoKind::kSendAdvert;
  return std::nullopt;
}

inline std::optional<Protocol> protocol_from(std::string_view name) {
  if (name == "connected") return Protocol::kConnected;
  if (name == "static") return Protocol::kStatic;
  if (name == "ebgp") return Protocol::kEbgp;
  if (name == "ibgp") return Protocol::kIbgp;
  if (name == "ospf") return Protocol::kOspf;
  return std::nullopt;
}

inline std::optional<FibEntry::Action> action_from(std::string_view name) {
  if (name == "forward") return FibEntry::Action::kForward;
  if (name == "external") return FibEntry::Action::kExternal;
  if (name == "local") return FibEntry::Action::kLocal;
  if (name == "drop") return FibEntry::Action::kDrop;
  return std::nullopt;
}

// A minimal JSON value parser (objects, arrays, strings, integers, bools) —
// enough for our own output; no external dependencies.

struct JsonValue {
  enum class Type { kNull, kBool, kInt, kString, kArray, kObject } type = Type::kNull;
  bool boolean = false;
  std::int64_t integer = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }
  bool fail(const std::string& message) {
    if (error.empty()) error = message + " at offset " + std::to_string(pos);
    return false;
  }
  bool expect(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end");
    char c = text[pos];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') return parse_string(out);
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return parse_int(out);
    return fail("unexpected character");
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!expect('{')) return false;
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      JsonValue key;
      if (!parse_string(key)) return false;
      if (!expect(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace(std::move(key.string), std::move(value));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return expect('}');
    }
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!expect('[')) return false;
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return expect(']');
    }
  }

  bool parse_string(JsonValue& out) {
    out.type = JsonValue::Type::kString;
    if (!expect('"')) return false;
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("bad escape");
        char esc = text[pos++];
        switch (esc) {
          case '"': out.string += '"'; break;
          case '\\': out.string += '\\'; break;
          case 'n': out.string += '\n'; break;
          case 't': out.string += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("bad \\u escape");
            unsigned value = 0;
            auto [p, ec] = std::from_chars(text.data() + pos, text.data() + pos + 4, value, 16);
            if (ec != std::errc{}) return fail("bad \\u escape");
            pos += 4;
            out.string += static_cast<char>(value & 0x7f);
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        out.string += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_bool(JsonValue& out) {
    out.type = JsonValue::Type::kBool;
    if (text.substr(pos, 4) == "true") {
      out.boolean = true;
      pos += 4;
      return true;
    }
    if (text.substr(pos, 5) == "false") {
      out.boolean = false;
      pos += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_int(JsonValue& out) {
    out.type = JsonValue::Type::kInt;
    std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    auto [p, ec] = std::from_chars(text.data() + start, text.data() + pos, out.integer);
    if (ec != std::errc{} || p != text.data() + pos) return fail("bad number");
    return true;
  }
};

inline const JsonValue* field(const JsonValue& object, const std::string& name) {
  auto it = object.object.find(name);
  return it == object.object.end() ? nullptr : &it->second;
}

inline std::optional<std::int64_t> int_field(const JsonValue& object, const std::string& name) {
  const JsonValue* value = field(object, name);
  if (value == nullptr || value->type != JsonValue::Type::kInt) return std::nullopt;
  return value->integer;
}

inline std::optional<std::string> string_field(const JsonValue& object,
                                               const std::string& name) {
  const JsonValue* value = field(object, name);
  if (value == nullptr || value->type != JsonValue::Type::kString) return std::nullopt;
  return value->string;
}

inline bool bool_field(const JsonValue& object, const std::string& name) {
  const JsonValue* value = field(object, name);
  return value != nullptr && value->type == JsonValue::Type::kBool && value->boolean;
}

inline TraceLineStatus parse_trace_line(std::string_view line, IoRecord& out,
                                        std::string& error) {
  error.clear();
  bool blank = true;
  for (char c : line) {
    if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
  }
  if (blank) return TraceLineStatus::kBlank;

  JsonParser parser{line, 0, {}};
  JsonValue value;
  if (!parser.parse_value(value) || value.type != JsonValue::Type::kObject) {
    error = parser.error.empty() ? "not an object" : parser.error;
    return TraceLineStatus::kError;
  }

  IoRecord record;
  auto id = int_field(value, "id");
  auto router = int_field(value, "router");
  auto kind_text = string_field(value, "kind");
  if (!id || !router || !kind_text) {
    error = "missing id/router/kind";
    return TraceLineStatus::kError;
  }
  auto kind = kind_from(*kind_text);
  if (!kind) {
    error = "unknown kind '" + *kind_text + "'";
    return TraceLineStatus::kError;
  }
  record.id = static_cast<IoId>(*id);
  record.router = static_cast<RouterId>(*router);
  record.kind = *kind;
  record.logged_time = int_field(value, "logged_time").value_or(0);
  record.true_time = int_field(value, "true_time").value_or(record.logged_time);
  auto seq = int_field(value, "seq");
  if (!seq || *seq < 0) {
    error = "missing or invalid seq";
    return TraceLineStatus::kError;
  }
  record.router_seq = static_cast<std::uint64_t>(*seq);
  if (auto protocol = string_field(value, "protocol")) {
    if (auto parsed = protocol_from(*protocol)) record.protocol = *parsed;
  }
  if (auto prefix_text = string_field(value, "prefix")) {
    auto prefix = Prefix::parse(*prefix_text);
    if (!prefix) {
      error = "bad prefix '" + *prefix_text + "'";
      return TraceLineStatus::kError;
    }
    record.prefix = *prefix;
  }
  if (auto session = string_field(value, "session")) record.session = *session;
  if (auto peer = int_field(value, "peer")) record.peer = static_cast<RouterId>(*peer);
  record.withdraw = bool_field(value, "withdraw");
  if (auto lp = int_field(value, "local_pref")) {
    record.local_pref = static_cast<std::uint32_t>(*lp);
  }
  if (auto detail = string_field(value, "detail")) record.detail = *detail;
  if (auto version = int_field(value, "config_version")) {
    record.config_version = static_cast<ConfigVersion>(*version);
  }
  if (auto link = int_field(value, "link")) record.link = static_cast<LinkId>(*link);
  record.link_up = bool_field(value, "link_up");
  record.fib_blocked = bool_field(value, "fib_blocked");
  record.fib_reset = bool_field(value, "fib_reset");
  if (auto message = int_field(value, "message_id")) {
    record.message_id = static_cast<std::uint64_t>(*message);
  }
  if (const JsonValue* causes = field(value, "true_causes");
      causes != nullptr && causes->type == JsonValue::Type::kArray) {
    for (const JsonValue& cause : causes->array) {
      if (cause.type == JsonValue::Type::kInt) {
        record.true_causes.push_back(static_cast<IoId>(cause.integer));
      }
    }
  }
  if (const JsonValue* entry = field(value, "fib_entry");
      entry != nullptr && entry->type == JsonValue::Type::kObject) {
    FibEntry fib;
    auto prefix_text = string_field(*entry, "prefix");
    auto action_text = string_field(*entry, "action");
    auto prefix = prefix_text ? Prefix::parse(*prefix_text) : std::nullopt;
    auto action = action_text ? action_from(*action_text) : std::nullopt;
    if (!prefix || !action) {
      error = "bad fib_entry";
      return TraceLineStatus::kError;
    }
    fib.prefix = *prefix;
    fib.action = *action;
    if (auto next_hop = int_field(*entry, "next_hop")) {
      fib.next_hop = static_cast<RouterId>(*next_hop);
    }
    if (auto session = string_field(*entry, "external_session")) {
      fib.external_session = *session;
    }
    if (auto source = string_field(*entry, "source")) {
      if (auto parsed = protocol_from(*source)) fib.source = *parsed;
    }
    record.fib_entry = fib;
  }
  out = std::move(record);
  return TraceLineStatus::kRecord;
}

}  // namespace hbguard::reference
