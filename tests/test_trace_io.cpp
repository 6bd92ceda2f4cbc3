#include <gtest/gtest.h>

#include <sstream>

#include "hbguard/capture/trace_io.hpp"
#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/sim/scenario.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/util/rng.hpp"
#include "reference_trace_parser.hpp"

namespace hbguard {
namespace {

bool records_equal(const IoRecord& a, const IoRecord& b) {
  return a.id == b.id && a.router == b.router && a.kind == b.kind &&
         a.logged_time == b.logged_time && a.true_time == b.true_time &&
         a.router_seq == b.router_seq && a.prefix == b.prefix && a.protocol == b.protocol &&
         a.session == b.session && a.peer == b.peer && a.withdraw == b.withdraw &&
         a.local_pref == b.local_pref && a.detail == b.detail &&
         a.config_version == b.config_version && a.link == b.link && a.link_up == b.link_up &&
         a.fib_entry == b.fib_entry && a.fib_blocked == b.fib_blocked &&
         a.fib_reset == b.fib_reset && a.message_id == b.message_id &&
         a.true_causes == b.true_causes;
}

TEST(TraceIo, RoundTripsAFullScenarioTrace) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  const auto& records = scenario.network->capture().records();
  std::ostringstream out;
  write_trace(out, records);

  auto parsed = parse_trace_text(out.str());
  for (const auto& error : parsed.errors) {
    ADD_FAILURE() << "line " << error.line << ": " << error.message;
  }
  ASSERT_EQ(parsed.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(records_equal(records[i], parsed.records[i]))
        << "record " << i << ": " << records[i].describe() << " vs "
        << parsed.records[i].describe();
  }
}

TEST(TraceIo, ParsedTraceDrivesTheAnalysisPipeline) {
  // The round-tripped trace must be as useful as the live one: same HBG,
  // same root causes.
  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  std::ostringstream out;
  write_trace(out, scenario.network->capture().records());
  auto parsed = parse_trace_text(out.str());
  ASSERT_TRUE(parsed.ok());

  auto hbg = HbgBuilder::build(parsed.records, RuleMatchingInference());
  IoId fault = kNoIo, cause = kNoIo;
  for (const IoRecord& r : parsed.records) {
    if (r.kind == IoKind::kFibUpdate && r.router == scenario.r1 && r.prefix.has_value() &&
        *r.prefix == scenario.prefix_p && !r.withdraw) {
      fault = r.id;
    }
    if (r.kind == IoKind::kConfigChange && r.config_version == bad) cause = r.id;
  }
  ASSERT_NE(fault, kNoIo);
  auto roots = hbg.root_causes(fault);
  EXPECT_NE(std::find(roots.begin(), roots.end(), cause), roots.end());
}

TEST(TraceIo, RedactionDropsOracleFields) {
  auto scenario = PaperScenario::make();
  scenario.converge_initial();

  TraceWriteOptions options;
  options.redact_ground_truth = true;
  std::ostringstream out;
  write_trace(out, scenario.network->capture().records(), options);
  std::string text = out.str();
  EXPECT_EQ(text.find("true_causes"), std::string::npos);
  EXPECT_EQ(text.find("true_time"), std::string::npos);
  EXPECT_EQ(text.find("message_id"), std::string::npos);

  auto parsed = parse_trace_text(text);
  ASSERT_TRUE(parsed.ok());
  for (const IoRecord& record : parsed.records) {
    EXPECT_TRUE(record.true_causes.empty());
    EXPECT_EQ(record.message_id, 0u);
    // true_time falls back to logged_time so time-based analysis still works.
    EXPECT_EQ(record.true_time, record.logged_time);
  }
}

TEST(TraceIo, EscapesSpecialCharacters) {
  IoRecord record;
  record.id = 1;
  record.router = 0;
  record.kind = IoKind::kConfigChange;
  record.detail = "set \"desc\" with \\ backslash\nand newline\ttab";
  std::string line = to_json_line(record);

  auto parsed = parse_trace_text(line);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].detail, record.detail);
}

TEST(TraceIo, ReportsMalformedLinesWithNumbers) {
  std::string text =
      "{\"id\":1,\"router\":0,\"kind\":\"fib\",\"seq\":0,\"logged_time\":5}\n"
      "this is not json\n"
      "{\"id\":2,\"router\":0,\"seq\":1}\n"  // missing kind
      "{\"id\":3,\"router\":0,\"kind\":\"nope\",\"seq\":2}\n";
  auto parsed = parse_trace_text(text);
  EXPECT_EQ(parsed.records.size(), 1u);
  ASSERT_EQ(parsed.errors.size(), 3u);
  EXPECT_EQ(parsed.errors[0].line, 2u);
  EXPECT_EQ(parsed.errors[1].line, 3u);
  EXPECT_EQ(parsed.errors[2].line, 4u);
}

TEST(TraceIo, RejectsMissingOrNegativeSeq) {
  // Stream-health gap detection depends on every record carrying its
  // router_seq; a record without one must not default to seq 0 (which
  // would masquerade as a duplicate of the router's first record).
  std::string text =
      "{\"id\":1,\"router\":0,\"kind\":\"fib\",\"logged_time\":5}\n"
      "{\"id\":2,\"router\":0,\"kind\":\"fib\",\"seq\":-3}\n"
      "{\"id\":3,\"router\":0,\"kind\":\"fib\",\"seq\":4}\n";
  auto parsed = parse_trace_text(text);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].router_seq, 4u);
  ASSERT_EQ(parsed.errors.size(), 2u);
  EXPECT_EQ(parsed.errors[0].line, 1u);
  EXPECT_EQ(parsed.errors[1].line, 2u);
}

TEST(TraceIo, SkipsBlankLines) {
  std::string text = "\n  \n{\"id\":1,\"router\":2,\"kind\":\"send\",\"seq\":0}\n\n";
  auto parsed = parse_trace_text(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].router, 2u);
}

TEST(TraceIo, StreamTraceConsumesLargeInputsIncrementally) {
  // Regression for the buffered reader: a multi-megabyte trace must be
  // consumed line by line, and an early-stopping visitor must leave the
  // stream positioned right after the last line it consumed — proof that
  // nothing slurped the whole input up front.
  constexpr std::size_t kRecords = 50'000;
  std::string text;
  text.reserve(kRecords * 64);
  for (std::size_t i = 0; i < kRecords; ++i) {
    IoRecord record;
    record.id = i + 1;
    record.router = i % 7;
    record.kind = IoKind::kSendAdvert;
    record.router_seq = i;
    record.detail = "pad-" + std::to_string(i);
    text += to_json_line(record);
    text += '\n';
  }

  std::istringstream in(text);
  std::size_t seen = 0;
  IoId last_id = 0;
  bool ok = stream_trace(in, [&](IoRecord&& record) {
    ++seen;
    last_id = record.id;
    return seen < 1000;  // stop early
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(seen, 1000u);
  EXPECT_EQ(last_id, 1000u);

  // The very next line on the stream is record 1001: the reader did not
  // read past what the visitor consumed.
  std::string next_line;
  ASSERT_TRUE(std::getline(in, next_line));
  IoRecord next;
  std::string error;
  ASSERT_EQ(parse_trace_line(next_line, next, error), TraceLineStatus::kRecord) << error;
  EXPECT_EQ(next.id, 1001u);

  // Restarting from that position streams the remainder exactly once.
  std::size_t rest = 1;  // counts the line consumed by getline above
  EXPECT_TRUE(stream_trace(in, [&](IoRecord&&) {
    ++rest;
    return true;
  }));
  EXPECT_EQ(seen + rest, kRecords);
}

TEST(TraceIo, StreamTraceReportsErrorsWithoutStopping) {
  std::string text =
      "{\"id\":1,\"router\":0,\"kind\":\"send\",\"seq\":0}\n"
      "this is not json\n"
      "{\"id\":2,\"router\":0,\"kind\":\"send\",\"seq\":1}\n";
  std::istringstream in(text);
  std::vector<TraceParseError> errors;
  std::size_t seen = 0;
  EXPECT_FALSE(stream_trace(
      in, [&](IoRecord&&) { ++seen; return true; }, &errors));
  EXPECT_EQ(seen, 2u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].line, 2u);
}

TEST(TraceIo, FibResetMarkerSurvivesRoundTrip) {
  IoRecord record;
  record.id = 9;
  record.router = 1;
  record.kind = IoKind::kHardwareStatus;
  record.detail = "cold boot (restart)";
  record.fib_reset = true;

  std::string line = to_json_line(record);
  EXPECT_NE(line.find("fib_reset"), std::string::npos);
  auto parsed = parse_trace_text(line);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_TRUE(parsed.records[0].fib_reset);
  EXPECT_TRUE(records_equal(record, parsed.records[0]));
}

/// One random record with every optional/conditional field independently
/// present or absent, constrained only by what the JSONL format can
/// represent losslessly (link_up is a kHardwareStatus field; a FibEntry
/// carries next_hop only when forwarding and a session only when external).
IoRecord random_record(Rng& rng, IoId id) {
  static constexpr IoKind kKinds[] = {
      IoKind::kConfigChange, IoKind::kHardwareStatus, IoKind::kRecvAdvert,
      IoKind::kRibUpdate,    IoKind::kFibUpdate,      IoKind::kSendAdvert,
  };
  static constexpr Protocol kProtocols[] = {
      Protocol::kConnected, Protocol::kStatic, Protocol::kEbgp,
      Protocol::kIbgp,      Protocol::kOspf,
  };
  // Escaping stress: quotes, backslashes, tabs, newlines, raw control chars.
  static constexpr std::string_view kDetailChars = "ab \"\\\n\tZ:{},[]\x01\x1f";

  auto random_text = [&](std::size_t max_len) {
    std::string text;
    std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, max_len));
    for (std::size_t i = 0; i < len; ++i) {
      text += kDetailChars[rng.uniform_int(0, kDetailChars.size() - 1)];
    }
    return text;
  };

  IoRecord r;
  r.id = id;
  r.router = static_cast<RouterId>(rng.uniform_int(0, 12));
  r.kind = kKinds[rng.uniform_int(0, 5)];
  r.logged_time = rng.uniform_int(0, 10'000'000);
  r.true_time = rng.chance(0.5) ? r.logged_time : rng.uniform_int(0, 10'000'000);
  r.router_seq = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000));
  r.protocol = kProtocols[rng.uniform_int(0, 4)];
  if (rng.chance(0.5)) r.prefix = churn_prefix(rng.uniform_int(0, 15));
  if (rng.chance(0.5)) r.session = random_text(12);
  if (rng.chance(0.5)) {
    r.peer = rng.chance(0.25) ? kExternalRouter : static_cast<RouterId>(rng.uniform_int(0, 12));
  }
  r.withdraw = rng.chance(0.5);
  if (rng.chance(0.5)) r.local_pref = static_cast<std::uint32_t>(rng.uniform_int(0, 400));
  if (rng.chance(0.5)) r.detail = random_text(24);
  if (rng.chance(0.5)) r.config_version = static_cast<ConfigVersion>(rng.uniform_int(1, 999));
  if (rng.chance(0.5)) r.link = static_cast<LinkId>(rng.uniform_int(0, 64));
  if (r.kind == IoKind::kHardwareStatus) r.link_up = rng.chance(0.5);
  r.fib_blocked = rng.chance(0.3);
  r.fib_reset = rng.chance(0.3);
  if (rng.chance(0.4)) {
    FibEntry entry;
    entry.prefix = churn_prefix(rng.uniform_int(0, 15));
    static constexpr FibEntry::Action kActions[] = {
        FibEntry::Action::kForward, FibEntry::Action::kExternal,
        FibEntry::Action::kLocal,   FibEntry::Action::kDrop,
    };
    entry.action = kActions[rng.uniform_int(0, 3)];
    if (entry.action == FibEntry::Action::kForward) {
      entry.next_hop = static_cast<RouterId>(rng.uniform_int(0, 12));
    }
    if (entry.action == FibEntry::Action::kExternal) entry.external_session = random_text(8);
    entry.source = kProtocols[rng.uniform_int(0, 4)];
    r.fib_entry = entry;
  }
  if (rng.chance(0.5)) r.message_id = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000));
  if (rng.chance(0.4)) {
    std::size_t causes = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t i = 0; i < causes; ++i) {
      r.true_causes.push_back(static_cast<IoId>(rng.uniform_int(1, 1'000'000)));
    }
  }
  return r;
}

TEST(TraceIo, FuzzRoundTripCoversEveryOptionalFieldCombination) {
  // Property: write → parse is the identity on any representable record.
  // 500 seeded random records flip every optional field independently, so
  // the combinations (prefix × session × peer × local_pref × config_version
  // × link × fib_entry variants × ground truth) all get exercised together.
  Rng rng(4242);
  std::vector<IoRecord> records;
  for (IoId id = 1; id <= 500; ++id) records.push_back(random_record(rng, id));

  std::ostringstream out;
  write_trace(out, records);
  auto parsed = parse_trace_text(out.str());
  for (const auto& error : parsed.errors) {
    ADD_FAILURE() << "line " << error.line << ": " << error.message;
  }
  ASSERT_EQ(parsed.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(records_equal(records[i], parsed.records[i]))
        << "record " << i << "\n  wrote:  " << to_json_line(records[i])
        << "\n  parsed: " << to_json_line(parsed.records[i]);
  }

  // The redacted form of the same corpus must still parse clean, with the
  // ground-truth fields scrubbed and true_time falling back to logged_time.
  TraceWriteOptions redact;
  redact.redact_ground_truth = true;
  std::ostringstream redacted_out;
  write_trace(redacted_out, records, redact);
  auto redacted = parse_trace_text(redacted_out.str());
  ASSERT_TRUE(redacted.ok());
  ASSERT_EQ(redacted.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(redacted.records[i].true_causes.empty());
    EXPECT_EQ(redacted.records[i].message_id, 0u);
    EXPECT_EQ(redacted.records[i].true_time, redacted.records[i].logged_time);
  }
}

TEST(TraceIo, FibEntrySurvivesRoundTrip) {
  IoRecord record;
  record.id = 7;
  record.router = 3;
  record.kind = IoKind::kFibUpdate;
  record.prefix = *Prefix::parse("203.0.113.0/24");
  FibEntry entry;
  entry.prefix = *record.prefix;
  entry.action = FibEntry::Action::kExternal;
  entry.external_session = "uplink2";
  entry.source = Protocol::kEbgp;
  record.fib_entry = entry;

  auto parsed = parse_trace_text(to_json_line(record));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.records[0].fib_entry.has_value());
  EXPECT_EQ(*parsed.records[0].fib_entry, entry);
}

TEST(TraceIo, RejectsNestingPastTheDepthLimit) {
  // One hostile line used to recurse once per bracket until the stack ran
  // out; it must come back as an error instead.
  std::string line = "{\"id\":1,\"x\":" + std::string(100'000, '[');
  IoRecord record;
  std::string error;
  EXPECT_EQ(parse_trace_line(line, record, error), TraceLineStatus::kError);
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;

  // Nesting up to the limit is still only syntax to validate.
  auto nested = [](int depth) {
    return "{\"id\":1,\"router\":2,\"kind\":\"fib\",\"seq\":3,\"x\":" +
           std::string(static_cast<std::size_t>(depth - 1), '[') +
           std::string(static_cast<std::size_t>(depth - 1), ']') + "}";
  };
  EXPECT_EQ(parse_trace_line(nested(kMaxJsonDepth), record, error), TraceLineStatus::kRecord)
      << error;
  EXPECT_EQ(parse_trace_line(nested(kMaxJsonDepth + 1), record, error),
            TraceLineStatus::kError);
}

TEST(TraceIo, RejectsTrailingBytesAfterTheRecord) {
  const std::string record_text = "{\"id\":1,\"router\":2,\"kind\":\"fib\",\"seq\":3}";
  IoRecord record;
  std::string error;
  EXPECT_EQ(parse_trace_line(record_text + " trailing garbage", record, error),
            TraceLineStatus::kError);
  EXPECT_EQ(parse_trace_line(record_text + "{}", record, error), TraceLineStatus::kError);
  // Whitespace, including a CRLF line ending's \r, stays legal.
  EXPECT_EQ(parse_trace_line(record_text + " \t\r", record, error), TraceLineStatus::kRecord)
      << error;
  EXPECT_EQ(record.router_seq, 3u);
}

// ---------------------------------------------------------------------------
// Differential fuzz against the value-tree parser (reference_trace_parser.hpp).

/// Deepest container nesting of a syntactically valid line.
int nesting_depth(std::string_view line) {
  int depth = 0, deepest = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_string) {
      if (c == '\\') i += line.substr(i + 1, 1) == "u" ? 5 : 1;  // \uXXXX eats four bytes
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      deepest = std::max(deepest, ++depth);
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return deepest;
}

/// Whether bytes other than whitespace follow the first JSON value.
bool has_trailing_bytes(std::string_view line) {
  reference::JsonParser parser{line, 0, {}};
  reference::JsonValue value;
  if (!parser.parse_value(value)) return false;
  parser.skip_ws();
  return parser.pos != line.size();
}

/// Whether the oracle's value tree holds an integer the parser rejects as
/// out of range: an `id` outside [1, 2^32), or a `router`, `peer`,
/// `local_pref`, `link` or fib_entry `next_hop` outside [0, 2^32).
bool out_of_range(std::string_view line) {
  reference::JsonParser parser{line, 0, {}};
  reference::JsonValue value;
  if (!parser.parse_value(value) || value.type != reference::JsonValue::Type::kObject) {
    return false;
  }
  auto outside = [](const reference::JsonValue& object, const std::string& name,
                    std::int64_t min) {
    std::optional<std::int64_t> v = reference::int_field(object, name);
    return v.has_value() && (*v < min || *v > std::int64_t{0xFFFFFFFF});
  };
  bool range = outside(value, "id", 1);
  for (const char* name : {"router", "peer", "local_pref", "link"}) {
    range |= outside(value, name, 0);
  }
  const reference::JsonValue* entry = reference::field(value, "fib_entry");
  if (entry != nullptr && entry->type == reference::JsonValue::Type::kObject) {
    range |= outside(*entry, "next_hop", 0);
  }
  return range;
}

/// One to three stacked mutations: byte flips, truncations, inserted JSON
/// metacharacters, duplicated or wrong-typed known keys (front: the copy is
/// the first occurrence and wins; back: it is ignored), nesting around the
/// depth limit, \u escapes, and trailing bytes.
std::string mutate(std::string line, Rng& rng) {
  static constexpr std::string_view kMeta = "{}[]\",:\\ \t\r\v\f-0123456789tfnu";
  static const std::string kKeys[] = {
      "id",     "router", "kind",       "logged_time", "seq",       "protocol",  "prefix",
      "session", "peer",  "withdraw",   "local_pref",  "detail",    "link_up",   "fib_entry",
      "true_time", "message_id", "true_causes", "i\\u0064", "\\u006bind", "se\\u0071", "other"};
  static const std::string kValues[] = {
      "1",         "-1",        "0",          "007",      "99999999999999999999", "1.5",
      "-",         "\"x\"",     "\"fib\"",    "\"ospf\"", "\"10.0.0.0/24\"",      "\"10.0.0.0/33\"",
      "true",      "false",     "null",       "[]",       "[1,\"a\",[2],{}]",      "{}",
      "{\"prefix\":\"10.0.0.0/8\",\"action\":\"drop\",\"prefix\":5}",
      "{\"action\":\"forward\",\"next_hop\":\"2\"}", "\"\\u0041\\u4zz1\"", "\"a\\/b\""};
  static const std::string kTrailers[] = {" ", "\r", " \t\r", " x", "}", "{}", "\v", ",", "\n"};
  auto pick = [&](const auto& pool) -> const auto& {
    return pool[rng.uniform_int(0, static_cast<std::int64_t>(std::size(pool)) - 1)];
  };
  auto position = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(line.size())));
  };
  auto front = [&](const std::string& member) {
    line.insert(line.empty() ? 0 : 1, member + ",");
  };
  for (std::int64_t step = rng.uniform_int(1, 3); step > 0; --step) {
    switch (rng.uniform_int(0, 7)) {
      case 0:
        if (!line.empty()) line[position() % line.size()] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:
        line.resize(position());
        break;
      case 2:
        line.insert(position(), 1, pick(kMeta));
        break;
      case 3:
        front("\"" + pick(kKeys) + "\":" + pick(kValues));
        break;
      case 4:
        if (!line.empty()) line.insert(line.size() - 1, ",\"" + pick(kKeys) + "\":" + pick(kValues));
        break;
      case 5: {
        auto brackets = static_cast<std::size_t>(rng.uniform_int(kMaxJsonDepth - 3, kMaxJsonDepth + 1));
        front("\"nest\":" + std::string(brackets, '[') + std::string(brackets, ']'));
        break;
      }
      case 6: {
        static constexpr std::string_view kHex = "0123456789abcdefABCDEFxz-+\" ";
        std::string escape = "\\u";
        for (int i = 0; i < 4; ++i) escape += pick(kHex);
        line.insert(position(), escape);
        break;
      }
      default:
        line += pick(kTrailers);
        break;
    }
  }
  return line;
}

TEST(TraceIo, SinglePassParserMatchesTheValueTreeOracleUnderFuzz) {
  Rng rng(20260);
  std::size_t accepted = 0, rejected = 0, too_deep = 0, trailing = 0, ranged = 0;
  for (IoId id = 1; id <= 30'000; ++id) {
    IoRecord original = random_record(rng, id);
    TraceWriteOptions options;
    options.redact_ground_truth = rng.chance(0.3);
    std::string line = mutate(to_json_line(original, options), rng);

    IoRecord expected, actual;
    std::string expected_error, actual_error;
    TraceLineStatus expected_status = reference::parse_trace_line(line, expected, expected_error);
    TraceLineStatus actual_status = parse_trace_line(line, actual, actual_error);
    if (expected_status == TraceLineStatus::kRecord && actual_status == TraceLineStatus::kError) {
      // Only the three new rejections may turn an accepted line away.
      bool deep = nesting_depth(line) > kMaxJsonDepth;
      bool tail = has_trailing_bytes(line);
      bool range = out_of_range(line);
      ASSERT_TRUE(deep || tail || range) << "newly rejected (" << actual_error << "): " << line;
      too_deep += deep;
      trailing += tail;
      ranged += range;
      continue;
    }
    ASSERT_EQ(actual_status, expected_status)
        << "line: " << line << "\n  oracle: " << expected_error << "\n  parser: " << actual_error;
    if (actual_status == TraceLineStatus::kRecord) {
      ++accepted;
      ASSERT_TRUE(records_equal(expected, actual))
          << "line: " << line << "\n  oracle: " << to_json_line(expected)
          << "\n  parser: " << to_json_line(actual);
    } else if (actual_status == TraceLineStatus::kError) {
      ++rejected;
    }
  }
  // The mutations must exercise every outcome, not just one.
  EXPECT_GT(accepted, 3'000u);
  EXPECT_GT(rejected, 3'000u);
  EXPECT_GT(too_deep, 50u);
  EXPECT_GT(trailing, 50u);
  EXPECT_GT(ranged, 50u);
}

}  // namespace
}  // namespace hbguard
