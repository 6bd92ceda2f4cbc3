// Properties of the batch equivalence-class computation and of
// class_signature(), the per-destination signature the early-block model
// keys on.
//
// class_signature() reads a destination's class from one lookup per router
// instead of partitioning the space, so it is only sound while it agrees
// with the partition everywhere. Every property here runs on random
// snapshots — nested prefixes, prefixes at both ends of the space, all
// four actions, empty views, zero and one router — at serial and pooled
// sizes:
//   * class_signature(ip) == classes[class_of(ip)].signature at both ends
//     of every atomic interval and at random addresses;
//   * pooled classes equal serial ones byte for byte;
//   * summed class traffic_weight equals the present prefixes' weight.
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

void expect_identical(const EquivalenceClasses& actual, const EquivalenceClasses& expected,
                      const std::string& where) {
  ASSERT_EQ(actual.atomic_intervals, expected.atomic_intervals) << where;
  ASSERT_EQ(actual.classes.size(), expected.classes.size()) << where;
  for (std::size_t i = 0; i < expected.classes.size(); ++i) {
    const EquivalenceClass& a = actual.classes[i];
    const EquivalenceClass& e = expected.classes[i];
    EXPECT_EQ(a.signature, e.signature) << where << " class " << i;
    EXPECT_EQ(a.intervals, e.intervals) << where << " class " << i;
    EXPECT_EQ(a.representative.bits(), e.representative.bits()) << where << " class " << i;
    EXPECT_EQ(a.size, e.size) << where << " class " << i;
    EXPECT_EQ(a.traffic_weight, e.traffic_weight) << where << " class " << i;
  }
}

/// The full-table scheme's /19s with their nested /24s, plus prefixes that
/// share a start with a longer one and prefixes at both ends of the space.
std::vector<Prefix> prefix_pool() {
  std::vector<Prefix> pool;
  for (std::size_t i = 0; i < 48; ++i) pool.push_back(full_table_prefix(i));
  for (const char* cidr : {"0.0.0.0/0", "0.0.0.0/32", "10.0.0.0/8", "10.0.0.0/16",
                           "10.0.0.0/24", "128.0.0.0/1", "255.255.255.0/24",
                           "255.255.255.255/32"}) {
    pool.push_back(*Prefix::parse(cidr));
  }
  return pool;
}

FibEntry entry_for(const Prefix& prefix, std::mt19937_64& rng) {
  FibEntry entry;
  entry.prefix = prefix;
  entry.source = Protocol::kEbgp;
  switch (rng() % 4) {
    case 0:
      entry.action = FibEntry::Action::kForward;
      entry.next_hop = static_cast<RouterId>(rng() % 12);
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

/// `routers` routers with sparse two-digit ids; about one view in four is
/// empty, the others hold a random share of the pool.
DataPlaneSnapshot random_snapshot(std::mt19937_64& rng, std::size_t routers) {
  DataPlaneSnapshot snapshot;
  const std::vector<Prefix> pool = prefix_pool();
  for (std::size_t r = 0; r < routers; ++r) {
    RouterFibView& view = snapshot.routers[static_cast<RouterId>(r * 7)];
    if (rng() % 4 == 0) continue;
    const std::uint64_t keep_one_in = 1 + rng() % 4;
    for (const Prefix& prefix : pool) {
      if (rng() % keep_one_in == 0) view.entries.install(entry_for(prefix, rng));
    }
  }
  return snapshot;
}

class BatchEqclass : public ::testing::TestWithParam<unsigned> {
 protected:
  std::unique_ptr<ThreadPool> pool_ =
      GetParam() <= 1 ? nullptr : std::make_unique<ThreadPool>(GetParam());
};

TEST_P(BatchEqclass, SignatureTokensNameEachAction) {
  DataPlaneSnapshot snapshot;
  snapshot.routers[0].entries = {forward_entry("10.0.0.0/8", 12)};
  snapshot.routers[3].entries = {external_entry("10.0.0.0/8", "up")};
  FibEntry local = forward_entry("10.0.0.0/8", 0);
  local.action = FibEntry::Action::kLocal;
  snapshot.routers[4].entries = {local};
  FibEntry drop = forward_entry("10.0.0.0/8", 0);
  drop.action = FibEntry::Action::kDrop;
  snapshot.routers[11].entries = {drop};
  snapshot.routers[12];  // empty view

  EquivalenceClasses ec = compute_equivalence_classes(snapshot, pool_.get());
  ASSERT_EQ(ec.classes.size(), 2u);
  EXPECT_EQ(ec.classes[0].signature, "0:-;3:-;4:-;11:-;12:-;");
  EXPECT_EQ(ec.classes[1].signature, "0:F12;3:Xup;4:L;11:D;12:-;");
  EXPECT_EQ(class_signature(snapshot, IpAddress(10, 200, 0, 1)), ec.classes[1].signature);
  EXPECT_EQ(class_signature(snapshot, IpAddress(11, 0, 0, 0)), ec.classes[0].signature);

  // No routers: one class over the whole space, with the empty signature.
  DataPlaneSnapshot none;
  EquivalenceClasses empty = compute_equivalence_classes(none, pool_.get());
  ASSERT_EQ(empty.classes.size(), 1u);
  EXPECT_EQ(empty.classes[0].signature, "");
  EXPECT_EQ(empty.classes[0].size, std::uint64_t{1} << 32);
  EXPECT_EQ(class_signature(none, IpAddress(8, 8, 8, 8)), "");
}

TEST_P(BatchEqclass, ClassSignatureMatchesThePartition) {
  std::mt19937_64 rng(0xEC51 + GetParam());
  std::size_t checks = 0;
  for (int round = 0; round < 60; ++round) {
    const std::string where = "round " + std::to_string(round);
    DataPlaneSnapshot snapshot = random_snapshot(rng, static_cast<std::size_t>(round % 6));
    EquivalenceClasses ec = compute_equivalence_classes(snapshot, pool_.get());
    auto expect_agrees = [&](std::uint32_t bits) {
      IpAddress ip(bits);
      std::size_t index = ec.class_of(ip);
      ASSERT_LT(index, ec.classes.size()) << where;
      EXPECT_EQ(class_signature(snapshot, ip), ec.classes[index].signature)
          << where << " at " << ip.to_string();
      ++checks;
    };
    for (const EquivalenceClass& klass : ec.classes) {
      for (const auto& [start, end] : klass.intervals) {
        expect_agrees(start);
        expect_agrees(end);
      }
    }
    for (int i = 0; i < 64; ++i) expect_agrees(static_cast<std::uint32_t>(rng()));
  }
  EXPECT_GT(checks, 5000u);
}

TEST_P(BatchEqclass, PooledClassesEqualSerial) {
  std::mt19937_64 rng(0xB47C + GetParam());
  for (int round = 0; round < 30; ++round) {
    DataPlaneSnapshot snapshot = random_snapshot(rng, static_cast<std::size_t>(round % 6));
    expect_identical(compute_equivalence_classes(snapshot, pool_.get()),
                     compute_equivalence_classes(snapshot), "round " + std::to_string(round));
  }

  // More atomic intervals than one lookup block holds (2^16), so pooled
  // lookups span several blocks.
  DataPlaneSnapshot table;
  for (std::size_t i = 0; i < (std::size_t{1} << 16); ++i) {
    FibEntry entry = entry_for(full_table_prefix(i), rng);
    table.routers[static_cast<RouterId>(i % 3)].entries.install(entry);
  }
  EquivalenceClasses serial = compute_equivalence_classes(table);
  ASSERT_GT(serial.atomic_intervals, std::size_t{1} << 16);
  expect_identical(compute_equivalence_classes(table, pool_.get()), serial, "full table");
}

TEST_P(BatchEqclass, ClassWeightsConservePresentDemandExactly) {
  std::mt19937_64 rng(0x7EAF + GetParam());
  auto weights = std::make_shared<TrafficWeights>();
  const std::vector<Prefix> pool = prefix_pool();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    // Heavy, light and zero demand; every fifth prefix has none attached.
    if (i % 5 == 4) continue;
    weights->set(pool[i], (i % 7 == 0) ? 0 : rng() % 1'000'000'000'000ull);
  }

  for (int round = 0; round < 30; ++round) {
    const std::string where = "round " + std::to_string(round);
    DataPlaneSnapshot snapshot = random_snapshot(rng, static_cast<std::size_t>(round % 6));
    EquivalenceClasses weighted = compute_equivalence_classes(snapshot, weights, pool_.get());
    std::uint64_t class_total = 0;
    for (const EquivalenceClass& klass : weighted.classes) class_total += klass.traffic_weight;
    std::uint64_t present_total = 0;
    for (const Prefix& prefix : snapshot.all_prefixes()) {
      present_total += weights->weight_of(prefix);
    }
    EXPECT_EQ(class_total, present_total) << where;

    // Weights change only the aggregate field.
    for (EquivalenceClass& klass : weighted.classes) klass.traffic_weight = 0;
    expect_identical(weighted, compute_equivalence_classes(snapshot, pool_.get()), where);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BatchEqclass, ::testing::Values(1u, 2u, 8u));

}  // namespace
}  // namespace hbguard
