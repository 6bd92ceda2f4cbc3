// Differential tests pinning StreamingEquivalenceClasses byte-identical to
// compute_equivalence_classes.
//
// The streaming maintainer is only allowed to exist because its
// materialized classes are indistinguishable from the batch computation at
// every churn cut point — the early-block model keys on the signature
// strings, so a single divergent byte changes guard behaviour. Every test here drives churn through
// Snapshot::apply_fib_update + SnapshotDelta, the shape a scan stream
// delivers changes in, then compares the full materialization (signatures, interval lists,
// representatives, sizes, class order) against a scratch batch build, at
// serial and parallel pool sizes.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/util/thread_pool.hpp"
#include "hbguard/verify/eqclass.hpp"

namespace hbguard {
namespace {

void expect_identical(const StreamingEquivalenceClasses& streaming,
                      const DataPlaneSnapshot& snapshot, ThreadPool* pool,
                      const char* where) {
  EquivalenceClasses batch = compute_equivalence_classes(snapshot, pool);
  EquivalenceClasses live = streaming.classes();
  ASSERT_EQ(live.atomic_intervals, batch.atomic_intervals) << where;
  ASSERT_EQ(live.classes.size(), batch.classes.size()) << where;
  for (std::size_t i = 0; i < batch.classes.size(); ++i) {
    EXPECT_EQ(live.classes[i].signature, batch.classes[i].signature)
        << where << " class " << i;
    EXPECT_EQ(live.classes[i].intervals, batch.classes[i].intervals)
        << where << " class " << i;
    EXPECT_EQ(live.classes[i].representative.bits(), batch.classes[i].representative.bits())
        << where << " class " << i;
    EXPECT_EQ(live.classes[i].size, batch.classes[i].size) << where << " class " << i;
  }
}

FibEntry entry_for(const Prefix& prefix, std::mt19937_64& rng, std::size_t router_count) {
  FibEntry entry;
  entry.prefix = prefix;
  entry.source = Protocol::kEbgp;
  switch (rng() % 4) {
    case 0:
      entry.action = FibEntry::Action::kForward;
      entry.next_hop = static_cast<RouterId>(rng() % router_count);
      break;
    case 1:
      entry.action = FibEntry::Action::kExternal;
      entry.external_session = "peer" + std::to_string(rng() % 3);
      break;
    case 2:
      entry.action = FibEntry::Action::kLocal;
      break;
    default:
      entry.action = FibEntry::Action::kDrop;
      break;
  }
  return entry;
}

class StreamingEqclassDifferential : public ::testing::TestWithParam<unsigned> {
 protected:
  std::unique_ptr<ThreadPool> pool_ =
      GetParam() <= 1 ? nullptr : std::make_unique<ThreadPool>(GetParam());
};

TEST_P(StreamingEqclassDifferential, RandomChurnRoundsStayByteIdentical) {
  constexpr std::size_t kRouters = 5;
  constexpr std::size_t kPrefixPool = 120;  // full_table scheme: /19s + nested /24s
  std::mt19937_64 rng(0xD1FF + GetParam());

  DataPlaneSnapshot snapshot;
  for (std::size_t r = 0; r < kRouters; ++r) snapshot.routers[static_cast<RouterId>(r)];

  StreamingEquivalenceClasses streaming;
  streaming.rebuild(snapshot, pool_.get());
  expect_identical(streaming, snapshot, pool_.get(), "empty");

  for (int round = 0; round < 40; ++round) {
    SnapshotDelta delta;
    delta.full = false;
    std::size_t updates = 1 + rng() % 12;
    for (std::size_t u = 0; u < updates; ++u) {
      Prefix prefix = full_table_prefix(rng() % kPrefixPool);
      auto router = static_cast<RouterId>(rng() % kRouters);
      bool withdraw = (rng() % 3) == 0;
      FibEntry entry = entry_for(prefix, rng, kRouters);
      snapshot.apply_fib_update(router, entry, withdraw);
      delta.changed_prefixes.insert(prefix);
    }
    streaming.update(snapshot, delta, pool_.get());
    expect_identical(streaming, snapshot, pool_.get(),
                     ("round " + std::to_string(round)).c_str());
  }
  EXPECT_GT(streaming.stats().incremental_updates, 0u);
  EXPECT_GT(streaming.stats().reused_intervals, 0u);
}

TEST_P(StreamingEqclassDifferential, SplitsAndMergesTrackNestedPrefixes) {
  DataPlaneSnapshot snapshot;
  snapshot.routers[0];
  snapshot.routers[1];
  StreamingEquivalenceClasses streaming;
  streaming.rebuild(snapshot, pool_.get());

  // Covering /19 appears: one boundary pair.
  Prefix covering = full_table_prefix(0);
  Prefix nested = full_table_prefix(1);
  SnapshotDelta delta;
  delta.full = false;
  delta.changed_prefixes = {covering};
  snapshot.apply_fib_update(0, forward_entry(covering.to_string().c_str(), 1), false);
  streaming.update(snapshot, delta, pool_.get());
  expect_identical(streaming, snapshot, pool_.get(), "covering installed");
  std::uint64_t splits_before = streaming.stats().splits;

  // Nested /24 splits the covering interval.
  delta.changed_prefixes = {nested};
  snapshot.apply_fib_update(1, external_entry(nested.to_string().c_str(), "up"), false);
  streaming.update(snapshot, delta, pool_.get());
  expect_identical(streaming, snapshot, pool_.get(), "nested installed");
  EXPECT_GT(streaming.stats().splits, splits_before);

  // Withdrawing the nested prefix merges the split intervals back.
  std::uint64_t merges_before = streaming.stats().merges;
  FibEntry withdraw_entry;
  withdraw_entry.prefix = nested;
  delta.changed_prefixes = {nested};
  snapshot.apply_fib_update(1, withdraw_entry, true);
  streaming.update(snapshot, delta, pool_.get());
  expect_identical(streaming, snapshot, pool_.get(), "nested withdrawn");
  EXPECT_GT(streaming.stats().merges, merges_before);
}

TEST_P(StreamingEqclassDifferential, InPlaceReplacementRedirtysOnlyThatPrefix) {
  DataPlaneSnapshot snapshot;
  snapshot.routers[0];
  snapshot.routers[1];
  snapshot.routers[2];
  for (std::size_t i = 0; i < 6; ++i) {
    Prefix prefix = full_table_prefix(i);
    snapshot.apply_fib_update(0, forward_entry(prefix.to_string().c_str(), 1), false);
  }
  StreamingEquivalenceClasses streaming;
  streaming.rebuild(snapshot, pool_.get());
  expect_identical(streaming, snapshot, pool_.get(), "seeded");

  // Same prefix set, different next hop: boundaries must not move.
  std::size_t intervals_before = streaming.atomic_intervals();
  Prefix target = full_table_prefix(2);
  SnapshotDelta delta;
  delta.full = false;
  delta.changed_prefixes = {target};
  snapshot.apply_fib_update(0, forward_entry(target.to_string().c_str(), 2), false);
  streaming.update(snapshot, delta, pool_.get());
  expect_identical(streaming, snapshot, pool_.get(), "replaced");
  EXPECT_EQ(streaming.atomic_intervals(), intervals_before);
}

TEST_P(StreamingEqclassDifferential, SupersetDeltaWithUntouchedPrefixesIsExact) {
  DataPlaneSnapshot snapshot;
  snapshot.routers[0];
  snapshot.routers[1];
  for (std::size_t i = 0; i < 4; ++i) {
    Prefix prefix = full_table_prefix(i);
    snapshot.apply_fib_update(0, forward_entry(prefix.to_string().c_str(), 1), false);
  }
  StreamingEquivalenceClasses streaming;
  streaming.rebuild(snapshot, pool_.get());

  // Delta names prefixes that did not change (and one absent everywhere):
  // a superset of the actual change set must still converge byte-exactly.
  SnapshotDelta delta;
  delta.full = false;
  delta.changed_prefixes = {full_table_prefix(0), full_table_prefix(1),
                            full_table_prefix(50)};
  snapshot.apply_fib_update(0, forward_entry(full_table_prefix(0).to_string().c_str(), 0),
                            false);
  streaming.update(snapshot, delta, pool_.get());
  expect_identical(streaming, snapshot, pool_.get(), "superset delta");
}

TEST_P(StreamingEqclassDifferential, FullDeltaFallsBackToRebuild) {
  DataPlaneSnapshot snapshot;
  snapshot.routers[0];
  snapshot.apply_fib_update(0, forward_entry("10.0.0.0/8", 0), false);
  StreamingEquivalenceClasses streaming;
  streaming.rebuild(snapshot, pool_.get());
  std::uint64_t rebuilds_before = streaming.stats().rebuilds;

  snapshot.routers[0].entries.clear();
  snapshot.routers[0].failed_uplinks.insert("up0");  // not a prefix change
  snapshot.invalidate_lookup_cache();
  SnapshotDelta full;  // defaults to full = true
  streaming.update(snapshot, full, pool_.get());
  expect_identical(streaming, snapshot, pool_.get(), "full delta");
  EXPECT_GT(streaming.stats().rebuilds, rebuilds_before);
}

TEST_P(StreamingEqclassDifferential, RouterSetChangeFallsBackToRebuild) {
  DataPlaneSnapshot snapshot;
  snapshot.routers[0];
  snapshot.apply_fib_update(0, forward_entry("10.0.0.0/8", 0), false);
  StreamingEquivalenceClasses streaming;
  streaming.rebuild(snapshot, pool_.get());

  // A new router appears: non-full delta can no longer be trusted (row
  // shape changed) — the maintainer must rebuild, not corrupt rows.
  snapshot.routers[7];
  SnapshotDelta delta;
  delta.full = false;
  delta.changed_prefixes = {*Prefix::parse("10.0.0.0/8")};
  streaming.update(snapshot, delta, pool_.get());
  expect_identical(streaming, snapshot, pool_.get(), "router added");
}

TEST_P(StreamingEqclassDifferential, ChurnConservesTrafficWeightExactly) {
  // Property fuzz for the weighted-EC invariant: however the interval
  // structure splits and merges under churn, the sum of class
  // traffic_weight equals the sum of weight_of over the snapshot's present
  // prefixes — exactly, in integers — and streaming matches batch.
  constexpr std::size_t kRouters = 4;
  constexpr std::size_t kPrefixPool = 96;
  std::mt19937_64 rng(0x7EAF + GetParam());

  auto weights = std::make_shared<TrafficWeights>();
  for (std::size_t i = 0; i < kPrefixPool; ++i) {
    // Mix of heavy, light and zero-demand prefixes.
    std::uint64_t w = (i % 7 == 0) ? 0 : (rng() % 1'000'000);
    weights->set(full_table_prefix(i), w);
  }

  DataPlaneSnapshot snapshot;
  for (std::size_t r = 0; r < kRouters; ++r) snapshot.routers[static_cast<RouterId>(r)];
  StreamingEquivalenceClasses streaming;
  streaming.set_traffic_weights(weights);
  streaming.rebuild(snapshot, pool_.get());

  auto check = [&](const char* where) {
    EquivalenceClasses live = streaming.classes();
    EquivalenceClasses batch = compute_equivalence_classes(snapshot, weights, pool_.get());
    ASSERT_EQ(live.classes.size(), batch.classes.size()) << where;
    std::uint64_t live_total = 0;
    for (std::size_t i = 0; i < live.classes.size(); ++i) {
      EXPECT_EQ(live.classes[i].traffic_weight, batch.classes[i].traffic_weight)
          << where << " class " << i;
      live_total += live.classes[i].traffic_weight;
    }
    std::uint64_t expected = 0;
    for (const Prefix& prefix : snapshot.all_prefixes()) {
      expected += weights->weight_of(prefix);
    }
    EXPECT_EQ(live_total, expected) << where;
  };
  check("empty");

  for (int round = 0; round < 30; ++round) {
    SnapshotDelta delta;
    delta.full = false;
    std::size_t updates = 1 + rng() % 10;
    for (std::size_t u = 0; u < updates; ++u) {
      Prefix prefix = full_table_prefix(rng() % kPrefixPool);
      auto router = static_cast<RouterId>(rng() % kRouters);
      bool withdraw = (rng() % 3) == 0;
      snapshot.apply_fib_update(router, entry_for(prefix, rng, kRouters), withdraw);
      delta.changed_prefixes.insert(prefix);
    }
    streaming.update(snapshot, delta, pool_.get());
    check(("round " + std::to_string(round)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, StreamingEqclassDifferential,
                         ::testing::Values(1u, 2u, 8u));

}  // namespace
}  // namespace hbguard
