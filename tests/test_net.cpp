#include <gtest/gtest.h>

#include "hbguard/net/ip.hpp"
#include "hbguard/net/prefix_trie.hpp"
#include "hbguard/net/topology.hpp"

namespace hbguard {
namespace {

TEST(IpAddress, ParseValid) {
  auto ip = IpAddress::parse("10.1.2.3");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->to_string(), "10.1.2.3");
  EXPECT_EQ(ip->bits(), 0x0a010203u);
}

TEST(IpAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("10.1.2").has_value());
  EXPECT_FALSE(IpAddress::parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(IpAddress::parse("10.1.2.256").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IpAddress::parse("").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.-4").has_value());
}

TEST(IpAddress, ParseAcceptsExactlyFourShortDecimalFields) {
  // The accepted grammar: four fields of 1-3 digits, each <= 255, joined by
  // single dots. Leading zeros inside that width are fine; anything around
  // or between the fields is not.
  struct Case {
    const char* text;
    std::optional<std::uint32_t> bits;
  };
  const Case cases[] = {
      {"1..2.3", std::nullopt},
      {".1.2.3", std::nullopt},
      {"1.2.3.", std::nullopt},
      {"1.2.3.4.", std::nullopt},
      {"0001.2.3.4", std::nullopt},
      {"+1.2.3.4", std::nullopt},
      {" 1.2.3.4", std::nullopt},
      {"1.2.3.4 ", std::nullopt},
      {"1.2.3.4\n", std::nullopt},
      {"1.2.3.04x", std::nullopt},
      {"1.2.3.256", std::nullopt},
      {"1.2.3.999", std::nullopt},
      {"01.2.3.4", 0x01020304u},
      {"001.002.003.004", 0x01020304u},
      {"0.0.0.0", 0x00000000u},
      {"255.255.255.255", 0xffffffffu},
  };
  for (const Case& c : cases) {
    std::optional<IpAddress> ip = IpAddress::parse(c.text);
    ASSERT_EQ(ip.has_value(), c.bits.has_value()) << '"' << c.text << '"';
    if (ip) {
      EXPECT_EQ(ip->bits(), *c.bits) << c.text;
    }
  }
}

TEST(IpAddress, OrderingFollowsNumericValue) {
  EXPECT_LT(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2));
  EXPECT_LT(IpAddress(9, 255, 255, 255), IpAddress(10, 0, 0, 0));
}

TEST(Prefix, CanonicalizesHostBits) {
  Prefix p(IpAddress(10, 1, 2, 3), 8);
  EXPECT_EQ(p.to_string(), "10.0.0.0/8");
}

TEST(Prefix, ParseRoundTrip) {
  auto p = Prefix::parse("192.168.128.0/17");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "192.168.128.0/17");
  EXPECT_FALSE(Prefix::parse("192.168.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("192.168.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("bogus/8").has_value());
}

TEST(Prefix, ContainsAndCovers) {
  Prefix p = *Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(p.contains(IpAddress(10, 200, 3, 4)));
  EXPECT_FALSE(p.contains(IpAddress(11, 0, 0, 0)));
  EXPECT_TRUE(p.covers(*Prefix::parse("10.5.0.0/16")));
  EXPECT_TRUE(p.covers(p));
  EXPECT_FALSE(p.covers(*Prefix::parse("0.0.0.0/0")));
}

TEST(Prefix, DefaultRouteCoversEverything) {
  Prefix d = Prefix::default_route();
  EXPECT_TRUE(d.contains(IpAddress(255, 255, 255, 255)));
  EXPECT_TRUE(d.covers(*Prefix::parse("203.0.113.0/24")));
  EXPECT_EQ(d.size(), std::uint64_t{1} << 32);
}

TEST(PrefixTrie, ExactInsertFindErase) {
  PrefixTrie<int> trie;
  Prefix p = *Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(trie.insert(p, 1));
  EXPECT_FALSE(trie.insert(p, 2));  // overwrite, not new
  ASSERT_NE(trie.find(p), nullptr);
  EXPECT_EQ(*trie.find(p), 2);
  EXPECT_TRUE(trie.erase(p));
  EXPECT_FALSE(trie.erase(p));
  EXPECT_EQ(trie.find(p), nullptr);
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, LongestMatchPrefersMoreSpecific) {
  PrefixTrie<std::string> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), "eight");
  trie.insert(*Prefix::parse("10.1.0.0/16"), "sixteen");
  trie.insert(*Prefix::parse("0.0.0.0/0"), "default");

  const std::string* hit = trie.longest_match(IpAddress(10, 1, 2, 3));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "sixteen");

  hit = trie.longest_match(IpAddress(10, 9, 9, 9));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "eight");

  hit = trie.longest_match(IpAddress(192, 0, 2, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "default");
}

TEST(PrefixTrie, LongestMatchWithoutDefaultReturnsNull) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 1);
  EXPECT_EQ(trie.longest_match(IpAddress(11, 0, 0, 1)), nullptr);
}

TEST(PrefixTrie, HostRouteDepth32) {
  PrefixTrie<int> trie;
  Prefix host = *Prefix::parse("10.255.0.1/32");
  trie.insert(host, 7);
  const int* hit = trie.longest_match(IpAddress(10, 255, 0, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 7);
  EXPECT_EQ(trie.longest_match(IpAddress(10, 255, 0, 2)), nullptr);
}

TEST(PrefixTrie, ForEachVisitsAllInsertedPrefixes) {
  PrefixTrie<int> trie;
  std::vector<Prefix> inserted = {
      *Prefix::parse("10.0.0.0/8"),
      *Prefix::parse("10.128.0.0/9"),
      *Prefix::parse("192.168.1.0/24"),
      *Prefix::parse("0.0.0.0/0"),
  };
  for (std::size_t i = 0; i < inserted.size(); ++i) trie.insert(inserted[i], static_cast<int>(i));
  auto prefixes = trie.prefixes();
  EXPECT_EQ(prefixes.size(), inserted.size());
  for (const Prefix& p : inserted) {
    EXPECT_NE(std::find(prefixes.begin(), prefixes.end(), p), prefixes.end())
        << p.to_string() << " missing from for_each output";
  }
}

TEST(PrefixSpaceBoundaries, PartitionsAtomically) {
  std::vector<Prefix> prefixes = {*Prefix::parse("10.0.0.0/8"), *Prefix::parse("10.1.0.0/16")};
  auto bounds = prefix_space_boundaries(prefixes);
  // Expected boundaries: 0, 10.0.0.0, 10.1.0.0, 10.2.0.0, 11.0.0.0
  EXPECT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], IpAddress(10, 0, 0, 0).bits());
  EXPECT_EQ(bounds[2], IpAddress(10, 1, 0, 0).bits());
  EXPECT_EQ(bounds[3], IpAddress(10, 2, 0, 0).bits());
  EXPECT_EQ(bounds[4], IpAddress(11, 0, 0, 0).bits());
}

TEST(PrefixSpaceBoundaries, FullSpacePrefixYieldsOnlyZero) {
  auto bounds = prefix_space_boundaries({Prefix::default_route()});
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_EQ(bounds[0], 0u);
}

TEST(Topology, AddAndQuery) {
  Topology topo;
  RouterId a = topo.add_router("A", 65000);
  RouterId b = topo.add_router("B", 65000);
  RouterId c = topo.add_router("C", 65001);
  LinkId ab = topo.add_link(a, b, 500, 10);
  topo.add_link(b, c);

  EXPECT_EQ(topo.router_count(), 3u);
  EXPECT_EQ(topo.link_count(), 2u);
  EXPECT_EQ(topo.router(a).name, "A");
  EXPECT_EQ(topo.router(c).as_number, 65001u);
  EXPECT_EQ(topo.find_router("B"), b);
  EXPECT_FALSE(topo.find_router("Z").has_value());
  ASSERT_TRUE(topo.link_between(a, b).has_value());
  EXPECT_EQ(*topo.link_between(a, b), ab);
  EXPECT_FALSE(topo.link_between(a, c).has_value());
  EXPECT_EQ(topo.link(ab).delay_us, 500);
  EXPECT_EQ(topo.link(ab).igp_cost, 10u);
}

TEST(Topology, DuplicateNameRejected) {
  Topology topo;
  topo.add_router("A");
  EXPECT_THROW(topo.add_router("A"), std::invalid_argument);
}

TEST(Topology, BadLinkEndpointsRejected) {
  Topology topo;
  RouterId a = topo.add_router("A");
  EXPECT_THROW(topo.add_link(a, a), std::invalid_argument);
  EXPECT_THROW(topo.add_link(a, 99), std::invalid_argument);
}

TEST(Topology, UpNeighborsRespectsLinkState) {
  Topology topo;
  RouterId a = topo.add_router("A");
  RouterId b = topo.add_router("B");
  RouterId c = topo.add_router("C");
  LinkId ab = topo.add_link(a, b);
  topo.add_link(a, c);

  auto neighbors = topo.up_neighbors(a);
  EXPECT_EQ(neighbors.size(), 2u);
  topo.set_link_state(ab, false);
  neighbors = topo.up_neighbors(a);
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_EQ(neighbors[0], c);
}

}  // namespace
}  // namespace hbguard
