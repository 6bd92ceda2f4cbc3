// Differential tests for the indexed RuleMatchEngine: on every trace shape
// the guard ingests, it must emit exactly the InferredHbr sequence (from,
// to, confidence, rule, and order) of the linear-walk reference engine in
// reference_rule_engine.hpp — attached to a shared store, on owned copies,
// and fed in uneven chunks over a store that grows between appends.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hbguard/hbr/incremental.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/util/rng.hpp"
#include "reference_rule_engine.hpp"

namespace hbguard {
namespace {

using Edges = std::vector<InferredHbr>;

std::string describe(const InferredHbr& edge) {
  return std::to_string(edge.from) + "->" + std::to_string(edge.to) + " (" + edge.rule +
         ", " + std::to_string(edge.confidence) + ")";
}

void expect_same_edges(const Edges& reference, const Edges& indexed) {
  ASSERT_EQ(reference.size(), indexed.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const InferredHbr& a = reference[i];
    const InferredHbr& b = indexed[i];
    if (a.from != b.from || a.to != b.to || a.confidence != b.confidence || a.rule != b.rule) {
      FAIL() << "edge " << i << ": reference " << describe(a) << ", indexed " << describe(b);
    }
  }
}

/// The engine over `records` as its attached store, in one add_all.
template <typename Engine>
Edges run_attached(const std::vector<IoRecord>& records, const MatcherOptions& options) {
  Engine engine(options);
  engine.attach_store(&records);
  Edges out;
  engine.add_all(records, out);
  return out;
}

/// No attached store: every record becomes an owned copy.
template <typename Engine>
Edges run_owned(const std::vector<IoRecord>& records, const MatcherOptions& options) {
  Engine engine(options);
  Edges out;
  for (const IoRecord& record : records) engine.add(record, out);
  return out;
}

/// Uneven chunks appended to a store that grows (and reallocates) between
/// add_all calls, the way a CaptureHub feeds the incremental HBG builder.
template <typename Engine>
Edges run_chunked(const std::vector<IoRecord>& records, const MatcherOptions& options) {
  std::vector<IoRecord> store;
  Engine engine(options);
  engine.attach_store(&store);
  Edges out;
  std::size_t chunk = 7;
  for (std::size_t offset = 0; offset < records.size();) {
    std::size_t take = std::min(chunk, records.size() - offset);
    store.insert(store.end(), records.begin() + static_cast<std::ptrdiff_t>(offset),
                 records.begin() + static_cast<std::ptrdiff_t>(offset + take));
    engine.add_all(std::span<const IoRecord>(store).subspan(offset), out);
    offset += take;
    chunk = chunk * 2 + 1;
  }
  return out;
}

/// Compares the engines in every feeding mode; returns the reference edges.
Edges expect_engines_agree(const std::vector<IoRecord>& records,
                           const MatcherOptions& options = {}) {
  Edges reference = run_attached<LinearRuleMatchEngine>(records, options);
  {
    SCOPED_TRACE("attached store");
    expect_same_edges(reference, run_attached<RuleMatchEngine>(records, options));
  }
  {
    SCOPED_TRACE("owned copies");
    expect_same_edges(reference, run_owned<RuleMatchEngine>(records, options));
  }
  {
    SCOPED_TRACE("chunked appends");
    expect_same_edges(reference, run_chunked<RuleMatchEngine>(records, options));
  }
  return reference;
}

/// hbguardd --soak's churn: iBGP over OSPF on a fixed 8-router Waxman
/// network with 2 uplinks, seed-drawn flap and local-pref rounds, cut to
/// `count` records.
std::vector<IoRecord> churn_records(std::uint64_t seed, std::size_t count,
                                    NetworkOptions network = {}) {
  constexpr std::uint64_t kNetworkSeed = 97;
  Rng topo_rng(kNetworkSeed);
  network.seed = kNetworkSeed;
  GeneratedNetwork generated = make_ibgp_network(make_waxman_topology(8, topo_rng), 2, network);
  generated.network->run_to_convergence();
  ChurnOptions churn;
  churn.prefix_count = 4;
  churn.event_count = 64;
  for (std::uint64_t round = 0; generated.network->capture().records().size() < count;
       ++round) {
    churn.seed = seed * 1'000'003 + round;
    ChurnWorkload workload(generated, churn);
    generated.network->run_to_convergence();
  }
  std::vector<IoRecord> records = generated.network->capture().records();
  records.resize(count);
  return records;
}

/// Full-table FIB churn as the benchmark's table workload draws it: a 2^16
/// prefix dump over 16 routers, then Zipf update trains whose session
/// resets log config changes.
std::vector<IoRecord> table_records(std::uint64_t seed) {
  FullTableChurnOptions options;
  options.prefix_count = 1u << 16;
  options.churn_records = 80'000 - options.prefix_count;
  options.router_count = 16;
  options.mean_gap_us = 150;
  options.seed = seed;
  std::vector<IoRecord> records;
  generate_full_table_churn(options, [&](const IoRecord& r) { records.push_back(r); });
  records.resize(80'000);
  return records;
}

bool has_rule(const Edges& edges, std::string_view rule) {
  for (const InferredHbr& edge : edges) {
    if (edge.rule == rule) return true;
  }
  return false;
}

TEST(RuleEngineOracle, ChurnAt100kRecords) {
  std::vector<IoRecord> records = churn_records(1, 100'000);
  Edges reference = run_attached<LinearRuleMatchEngine>(records, {});
  EXPECT_GT(reference.size(), records.size() / 2);
  expect_same_edges(reference, run_attached<RuleMatchEngine>(records, {}));
}

TEST(RuleEngineOracle, OwnedCopiesAndChunkedAppendsOnChurn) {
  std::vector<IoRecord> records = churn_records(7, 20'000);
  Edges reference = expect_engines_agree(records);
  for (std::string_view rule : {"send->recv", "recv-advert->rib", "rib->fib", "bgp-rib->send",
                                "lsa-recv->flood", "config->rib"}) {
    EXPECT_TRUE(has_rule(reference, rule)) << rule;
  }
}

TEST(RuleEngineOracle, FullTableChurnWithConfigChanges) {
  // The config window covers the whole trace, so every FIB update on a
  // router that logged a session reset links back to it.
  for (std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<IoRecord> records = table_records(seed);
    Edges reference = run_attached<LinearRuleMatchEngine>(records, {});
    expect_same_edges(reference, run_attached<RuleMatchEngine>(records, {}));
    if (seed == 2) {
      EXPECT_TRUE(has_rule(reference, "config->fib"));
    }
  }
}

TEST(RuleEngineOracle, JitteredChurnWithLocalSlackAndClockOffsets) {
  // Causes logged after their effects: forward lookups within the slack and
  // late-cause edges both fire.
  NetworkOptions network;
  network.capture.timestamp_jitter_us = 400;
  network.capture.clock_offset_us = 5'000;
  std::vector<IoRecord> records = churn_records(3, 20'000, network);
  MatcherOptions options;
  options.local_slack_us = 1'000;
  expect_engines_agree(records, options);
}

TEST(RuleEngineOracle, LsaTextEqualToPrefixTextSharesItsChannel) {
  // Channel content is the LSA text for OSPF and the prefix text otherwise,
  // so an OSPF receive whose LSA reads "10.0.0.0/24" pairs with a BGP send
  // of that prefix, and an empty LSA pairs with a prefix-less send.
  const Prefix p = *Prefix::parse("10.0.0.0/24");
  std::vector<IoRecord> records;
  auto add = [&](RouterId router, IoKind kind, Protocol protocol, std::optional<Prefix> prefix,
                 std::string detail, RouterId peer, SimTime t, bool withdraw = false) {
    IoRecord r;
    r.id = records.size() + 1;
    r.router = router;
    r.kind = kind;
    r.protocol = protocol;
    r.prefix = prefix;
    r.detail = std::move(detail);
    r.peer = peer;
    r.withdraw = withdraw;
    r.logged_time = r.true_time = t;
    records.push_back(r);
  };
  add(1, IoKind::kSendAdvert, Protocol::kIbgp, p, "", 2, 100);
  add(2, IoKind::kRecvAdvert, Protocol::kOspf, std::nullopt, "10.0.0.0/24", 1, 110);
  add(1, IoKind::kSendAdvert, Protocol::kIbgp, std::nullopt, "", 2, 200);
  add(2, IoKind::kRecvAdvert, Protocol::kOspf, std::nullopt, "", 1, 210);
  // An OSPF flood finds its LSA by text; the reverse channel aliases too.
  add(2, IoKind::kSendAdvert, Protocol::kOspf, std::nullopt, "10.0.0.0/24", 1, 220);
  add(1, IoKind::kRecvAdvert, Protocol::kEbgp, p, "", 2, 230);
  // Text interned as a prefix, never received as an LSA on this router.
  add(3, IoKind::kSendAdvert, Protocol::kOspf, std::nullopt, "10.0.0.0/24", 4, 240);
  // "No prefix" and 0.0.0.0/0 are different BGP keys.
  add(4, IoKind::kRecvAdvert, Protocol::kEbgp, Prefix::default_route(), "", 5, 300);
  add(4, IoKind::kRecvAdvert, Protocol::kEbgp, std::nullopt, "", 5, 310, /*withdraw=*/true);
  add(4, IoKind::kRibUpdate, Protocol::kEbgp, std::nullopt, "", kInvalidRouter, 320);
  add(4, IoKind::kRibUpdate, Protocol::kEbgp, Prefix::default_route(), "", kInvalidRouter, 330);
  add(4, IoKind::kFibUpdate, Protocol::kEbgp, std::nullopt, "", kInvalidRouter, 340);

  Edges reference = expect_engines_agree(records);
  std::size_t channel_edges = 0;
  for (const InferredHbr& edge : reference) channel_edges += edge.rule == "send->recv";
  EXPECT_EQ(channel_edges, 3u);
  EXPECT_TRUE(has_rule(reference, "lsa-recv->flood"));
  EXPECT_TRUE(has_rule(reference, "rib->fib"));
}

/// Random records over tiny pools — four routers, aliasing prefix and LSA
/// texts, coarse and slightly disordered clocks — so ties, window edges,
/// aliases and late causes all occur often.
std::vector<IoRecord> random_records(std::uint64_t seed, std::size_t count) {
  static constexpr IoKind kKinds[] = {IoKind::kConfigChange, IoKind::kHardwareStatus,
                                      IoKind::kRecvAdvert,   IoKind::kRibUpdate,
                                      IoKind::kFibUpdate,    IoKind::kSendAdvert};
  static constexpr Protocol kProtocols[] = {Protocol::kConnected, Protocol::kStatic,
                                            Protocol::kEbgp, Protocol::kIbgp, Protocol::kOspf};
  static const std::optional<Prefix> kPrefixes[] = {
      std::nullopt, Prefix::default_route(), *Prefix::parse("10.0.0.0/24"),
      *Prefix::parse("10.0.1.0/24")};
  static const std::string kDetails[] = {"", "10.0.0.0/24", "lsa-a", "lsa-b"};
  static constexpr RouterId kPeers[] = {0, 1, 2, 3, kExternalRouter, kInvalidRouter};
  Rng rng(seed);
  std::vector<IoRecord> records;
  SimTime now = 0;
  for (std::size_t i = 0; i < count; ++i) {
    now += rng.uniform_int(0, 3);
    IoRecord r;
    r.id = i + 1;
    r.router = static_cast<RouterId>(rng.uniform_int(0, 3));
    r.kind = kKinds[rng.uniform_int(0, 5)];
    r.protocol = kProtocols[rng.uniform_int(0, 4)];
    r.prefix = kPrefixes[rng.uniform_int(0, 3)];
    r.detail = kDetails[rng.uniform_int(0, 3)];
    r.peer = kPeers[rng.uniform_int(0, 5)];
    r.withdraw = rng.chance(0.3);
    r.logged_time = now + rng.uniform_int(-2, 2);
    r.true_time = now;
    records.push_back(r);
  }
  return records;
}

TEST(RuleEngineOracle, RandomRecordsWithTiesAliasesAndDisorder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<IoRecord> records = random_records(seed, 2'000);
    for (SimTime slack : {0, 2}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", local slack " + std::to_string(slack));
      MatcherOptions options;
      options.short_window_us = 20;
      options.soft_reconfig_window_us = 60;
      options.cross_router_slack_us = 3;
      options.local_slack_us = slack;
      expect_engines_agree(records, options);
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace hbguard
