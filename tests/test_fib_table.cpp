// FibTable (a view's entries plus their PrefixIndex) against Fib, whose
// PrefixTrie is the reference for exact and longest-prefix match.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "hbguard/rib/fib.hpp"
#include "hbguard/sim/workload.hpp"
#include "hbguard/snapshot/snapshot.hpp"
#include "hbguard/util/rng.hpp"

namespace hbguard {
namespace {

Prefix parse(const char* text) { return *Prefix::parse(text); }

FibEntry exit_entry(const Prefix& prefix, int session) {
  return FibEntry{prefix, FibEntry::Action::kExternal, kInvalidRouter,
                  "peer" + std::to_string(session), Protocol::kEbgp};
}

std::uint32_t last_address(const Prefix& prefix) {
  return static_cast<std::uint32_t>(prefix.address().bits() + (prefix.size() - 1));
}

/// Nested and covering prefixes at every depth: the default route, /32s at
/// both ends of the space and inside other prefixes, chains that share a
/// start, and random prefixes under a few anchors.
std::vector<Prefix> prefix_pool(Rng& rng) {
  std::vector<Prefix> pool;
  for (const char* text :
       {"0.0.0.0/0", "0.0.0.0/32", "0.0.0.0/1", "128.0.0.0/1", "255.255.255.255/32",
        "255.255.255.0/24", "10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/24", "10.0.0.0/32",
        "10.0.0.255/32", "10.0.1.0/24", "10.1.0.0/16", "10.128.0.0/9", "192.168.0.0/16",
        "192.168.1.0/24", "192.168.1.128/25", "192.168.1.128/32", "192.168.1.255/32"}) {
    pool.push_back(parse(text));
  }
  const std::uint32_t anchors[] = {10u << 24, 192u << 24 | 168u << 16, 0u, 0xffffff00u};
  while (pool.size() < 64) {
    std::uint32_t base = anchors[rng.uniform_int(0, 3)];
    auto noise = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffff));
    auto length = static_cast<std::uint8_t>(rng.uniform_int(8, 32));
    pool.push_back(Prefix(IpAddress(base | noise), length));
  }
  std::set<Prefix> distinct(pool.begin(), pool.end());
  return {distinct.begin(), distinct.end()};
}

void expect_same_match(const FibEntry* got, const FibEntry* want, IpAddress ip,
                       const std::string& where) {
  ASSERT_EQ(got == nullptr, want == nullptr) << where << " at " << ip.to_string();
  if (want != nullptr) {
    EXPECT_EQ(*got, *want) << where << " at " << ip.to_string();
  }
}

/// Exact find, ordered iteration and LPM at every pool prefix's start, end
/// and end+1 and at random addresses, against `reference`.
void expect_matches(const FibTable& table, const Fib& reference, const std::vector<Prefix>& pool,
                    Rng& rng, const std::string& where) {
  ASSERT_EQ(table.size(), reference.size()) << where;
  ASSERT_EQ(table, reference.entries()) << where;
  for (const Prefix& prefix : pool) {
    const FibEntry* got = table.find(prefix);
    const FibEntry* want = reference.find(prefix);
    ASSERT_EQ(got == nullptr, want == nullptr) << where << " find " << prefix.to_string();
    if (want != nullptr) {
      EXPECT_EQ(*got, *want) << where << " find " << prefix.to_string();
    }
    std::vector<std::uint32_t> probes = {prefix.address().bits(), last_address(prefix)};
    if (last_address(prefix) != 0xffffffffu) probes.push_back(last_address(prefix) + 1);
    for (std::uint32_t bits : probes) {
      expect_same_match(table.lookup(IpAddress(bits)), reference.lookup(IpAddress(bits)),
                        IpAddress(bits), where);
    }
  }
  for (int k = 0; k < 64; ++k) {
    auto bits = static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
    if (k % 2 == 0) bits = (10u << 24) | (bits >> 8);  // dense inside 10/8
    expect_same_match(table.lookup(IpAddress(bits)), reference.lookup(IpAddress(bits)),
                      IpAddress(bits), where);
  }
}

TEST(FibTable, RandomBatchesMatchAFibAndKeepUntouchedEntriesInPlace) {
  // Batches mix inserts, replacements, withdraws of present and absent
  // prefixes, erase-and-reinsert and reinsert-and-erase of one prefix, and
  // resets, all through the ViewFold path every snapshot uses. After each
  // batch the table must answer as a Fib that applied every operation in
  // order, and every entry the batch did not touch must keep its address.
  Rng rng(25);
  const std::vector<Prefix> pool = prefix_pool(rng);
  RouterFibView view;
  Fib reference;
  std::map<Prefix, const FibEntry*> address;  // as of the batch that last wrote it
  std::deque<IoRecord> records;               // the fold keeps pointers until commit()
  for (int batch = 0; batch < 600; ++batch) {
    ViewFold fold(view);
    std::set<Prefix> touched;
    bool reset = false;
    auto add = [&](const Prefix& prefix, bool withdraw) {
      IoRecord& r = records.emplace_back();
      r.kind = IoKind::kFibUpdate;
      r.prefix = prefix;
      r.withdraw = withdraw;
      if (withdraw) {
        reference.remove(prefix);
      } else {
        r.fib_entry = exit_entry(prefix, static_cast<int>(rng.uniform_int(0, 3)));
        reference.install(*r.fib_entry);
      }
      touched.insert(prefix);
      fold.add(r);
    };
    auto ops = rng.uniform_int(0, 20);
    for (std::int64_t k = 0; k < ops; ++k) {
      const Prefix& prefix = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      double roll = rng.uniform_real(0, 1);
      if (roll < 0.01) {
        IoRecord& r = records.emplace_back();
        r.kind = IoKind::kConfigChange;
        r.fib_reset = true;
        reference.clear();
        reset = true;
        fold.add(r);
      } else if (roll < 0.08) {
        add(prefix, /*withdraw=*/true);  // erase and reinsert in one batch
        add(prefix, /*withdraw=*/false);
      } else if (roll < 0.12) {
        add(prefix, /*withdraw=*/false);  // reinsert and erase
        add(prefix, /*withdraw=*/true);
      } else {
        add(prefix, /*withdraw=*/rng.chance(0.4));
      }
    }
    fold.commit();
    const std::string where = "batch " + std::to_string(batch);
    expect_matches(view.entries, reference, pool, rng, where);
    if (::testing::Test::HasFatalFailure()) return;

    for (const Prefix& prefix : pool) {
      const FibEntry* now = view.entries.find(prefix);
      auto kept = address.find(prefix);
      if (!reset && now != nullptr && kept != address.end() && !touched.contains(prefix)) {
        EXPECT_EQ(now, kept->second) << where << ": untouched " << prefix.to_string() << " moved";
      }
      if (now == nullptr) {
        address.erase(prefix);
      } else {
        address[prefix] = now;
      }
    }
  }
}

TEST(FibTable, SingleInstallsAndErasesMatchAFib) {
  Rng rng(7);
  const std::vector<Prefix> pool = prefix_pool(rng);
  FibTable table;
  Fib reference;
  for (int step = 0; step < 3000; ++step) {
    const Prefix& prefix = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    if (rng.chance(0.4)) {
      EXPECT_EQ(table.erase(prefix), reference.remove(prefix).has_value());
    } else {
      FibEntry entry = exit_entry(prefix, static_cast<int>(rng.uniform_int(0, 3)));
      table.install(entry);
      reference.install(entry);
    }
    if (step % 50 == 0) {
      expect_matches(table, reference, pool, rng, "step " + std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(FibTable, TablesSpanningManyChunksKeepUntouchedEntriesInPlace) {
  // Enough entries to fill several storage chunks, installed out of order,
  // with erases that free slots for later inserts to reuse.
  Rng rng(11);
  std::vector<Prefix> pool;
  for (std::size_t i = 0; i < 3000; ++i) pool.push_back(full_table_prefix(i));
  std::vector<Prefix> order = pool;
  rng.shuffle(order);
  FibTable table;
  Fib reference;
  for (const Prefix& prefix : order) {
    FibEntry entry = exit_entry(prefix, static_cast<int>(rng.uniform_int(0, 3)));
    table.install(entry);
    reference.install(entry);
  }
  expect_matches(table, reference, pool, rng, "filled");
  std::map<Prefix, const FibEntry*> address;
  for (const Prefix& prefix : pool) address[prefix] = table.find(prefix);
  std::set<Prefix> touched;
  for (std::size_t k = 0; k < order.size(); k += 3) {
    EXPECT_TRUE(table.erase(order[k]));
    reference.remove(order[k]);
    touched.insert(order[k]);
  }
  for (std::size_t k = 0; k < order.size(); k += 6) {
    FibEntry entry = exit_entry(order[k], 7);
    table.install(entry);
    reference.install(entry);
  }
  expect_matches(table, reference, pool, rng, "after erase and reinsert");
  for (const Prefix& prefix : pool) {
    if (!touched.contains(prefix)) {
      EXPECT_EQ(table.find(prefix), address[prefix]) << prefix.to_string() << " moved";
    }
  }
  FibTable rebuilt(reference.entries());
  EXPECT_EQ(rebuilt, table);
}

TEST(FibTable, CopiesKeepTheirEntriesInPlaceAsTheyGrow) {
  // A copy's partly filled chunk must keep its room: growing the copy
  // must not move the entries it started with.
  Rng rng(5);
  std::vector<Prefix> pool;
  for (std::size_t i = 0; i < 600; ++i) pool.push_back(full_table_prefix(i));
  Fib reference;
  FibTable original;
  for (std::size_t i = 0; i < 10; ++i) {
    original.install(exit_entry(pool[i], 1));
    reference.install(exit_entry(pool[i], 1));
  }
  FibTable assigned;
  assigned.install(exit_entry(pool[599], 2));
  assigned = original;
  FibTable constructed(original);
  for (FibTable* copy : {&constructed, &assigned}) {
    std::map<Prefix, const FibEntry*> address;
    for (std::size_t i = 0; i < 10; ++i) address[pool[i]] = copy->find(pool[i]);
    Fib grown;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (i >= 10) copy->install(exit_entry(pool[i], 3));
      grown.install(exit_entry(pool[i], i < 10 ? 1 : 3));
    }
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(copy->find(pool[i]), address[pool[i]]) << pool[i].to_string() << " moved";
    }
    expect_matches(*copy, grown, pool, rng, "grown copy");
  }
  expect_matches(original, reference, pool, rng, "original after copies grew");
}

TEST(FibTable, BulkBuildSortsAndKeepsTheLastDuplicate) {
  Rng rng(3);
  const std::vector<Prefix> pool = prefix_pool(rng);
  std::vector<FibEntry> entries;
  Fib reference;
  for (int k = 0; k < 200; ++k) {
    const Prefix& prefix = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    entries.push_back(exit_entry(prefix, k));
    reference.install(entries.back());
  }
  FibTable table(entries);
  expect_matches(table, reference, pool, rng, "bulk");

  // Copies answer alike and own their entries.
  FibTable copy = table;
  EXPECT_EQ(copy, table);
  FibEntry only_in_copy = exit_entry(pool.front(), 99);
  copy.install(only_in_copy);
  EXPECT_EQ(*copy.find(pool.front()), only_in_copy);
  expect_matches(table, reference, pool, rng, "original after the copy changed");
}

TEST(FibTable, DefaultRouteAndHostRoutesAtTheEdgesOfTheSpace) {
  FibTable table = {exit_entry(parse("255.255.255.255/32"), 1),
                    exit_entry(parse("0.0.0.0/32"), 2)};
  auto exit_at = [&](std::uint32_t bits) {
    const FibEntry* entry = table.lookup(IpAddress(bits));
    return entry == nullptr ? std::string("none") : entry->external_session;
  };
  EXPECT_EQ(exit_at(0xffffffffu), "peer1");
  EXPECT_EQ(exit_at(0u), "peer2");
  EXPECT_EQ(exit_at(1u), "none");
  EXPECT_EQ(exit_at(0xfffffffeu), "none");

  table.install(exit_entry(parse("0.0.0.0/0"), 3));
  EXPECT_EQ(exit_at(1u), "peer3");
  EXPECT_EQ(exit_at(0xfffffffeu), "peer3");
  EXPECT_EQ(exit_at(0xffffffffu), "peer1");

  EXPECT_TRUE(table.erase(parse("0.0.0.0/0")));
  EXPECT_FALSE(table.erase(parse("0.0.0.0/0")));
  EXPECT_EQ(exit_at(1u), "none");
  EXPECT_EQ(exit_at(0xffffffffu), "peer1");
}

}  // namespace
}  // namespace hbguard
