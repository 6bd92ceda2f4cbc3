// Binary (Patricia-style, one bit per level) trie keyed by Prefix.
//
// Used by the FIB for longest-prefix-match forwarding and by the verifier to
// compute packet equivalence classes: the set of distinct "trie cuts" across
// all routers' FIBs partitions the IPv4 space into classes that are forwarded
// identically everywhere (paper §6, citing [7]).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hbguard/net/ip.hpp"

namespace hbguard {

template <typename Value>
class PrefixTrie {
 public:
  /// Insert or overwrite the value at `prefix`. Returns true if new.
  bool insert(const Prefix& prefix, Value value) {
    Node* node = descend_or_create(prefix);
    bool is_new = !node->value.has_value();
    node->value = std::move(value);
    if (is_new) ++size_;
    return is_new;
  }

  /// Remove the value at exactly `prefix`. Returns true if it existed.
  bool erase(const Prefix& prefix) {
    Node* node = descend(prefix);
    if (node == nullptr || !node->value.has_value()) return false;
    node->value.reset();
    --size_;
    return true;
  }

  /// Exact-match lookup.
  const Value* find(const Prefix& prefix) const {
    const Node* node = descend(prefix);
    return (node != nullptr && node->value.has_value()) ? &*node->value : nullptr;
  }

  Value* find(const Prefix& prefix) {
    return const_cast<Value*>(static_cast<const PrefixTrie*>(this)->find(prefix));
  }

  /// Longest-prefix match for a destination address; nullptr if no entry
  /// (including no default route) covers it.
  const Value* longest_match(IpAddress ip, Prefix* matched = nullptr) const {
    const Node* node = &root_;
    const Value* best = nullptr;
    std::uint8_t depth = 0;
    std::uint8_t best_depth = 0;
    while (true) {
      if (node->value.has_value()) {
        best = &*node->value;
        best_depth = depth;
      }
      if (depth == 32) break;
      bool bit = (ip.bits() >> (31 - depth)) & 1u;
      const Node* next = bit ? node->one.get() : node->zero.get();
      if (next == nullptr) break;
      node = next;
      ++depth;
    }
    if (best != nullptr && matched != nullptr) {
      *matched = Prefix(ip, best_depth);
    }
    return best;
  }

  /// Visit every (prefix, value) pair in lexicographic (DFS) order.
  void for_each(const std::function<void(const Prefix&, const Value&)>& fn) const {
    walk(&root_, 0, 0, fn);
  }

  /// All stored prefixes, DFS order.
  std::vector<Prefix> prefixes() const {
    std::vector<Prefix> out;
    out.reserve(size_);
    for_each([&](const Prefix& p, const Value&) { out.push_back(p); });
    return out;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    root_ = Node{};
    size_ = 0;
  }

 private:
  struct Node {
    std::optional<Value> value;
    std::unique_ptr<Node> zero;
    std::unique_ptr<Node> one;
  };

  const Node* descend(const Prefix& prefix) const {
    const Node* node = &root_;
    for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
      bool bit = (prefix.address().bits() >> (31 - depth)) & 1u;
      node = bit ? node->one.get() : node->zero.get();
      if (node == nullptr) return nullptr;
    }
    return node;
  }

  Node* descend(const Prefix& prefix) {
    return const_cast<Node*>(static_cast<const PrefixTrie*>(this)->descend(prefix));
  }

  Node* descend_or_create(const Prefix& prefix) {
    Node* node = &root_;
    for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
      bool bit = (prefix.address().bits() >> (31 - depth)) & 1u;
      auto& child = bit ? node->one : node->zero;
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    return node;
  }

  void walk(const Node* node, std::uint32_t bits, std::uint8_t depth,
            const std::function<void(const Prefix&, const Value&)>& fn) const {
    if (node->value.has_value()) {
      fn(Prefix(IpAddress(bits), depth), *node->value);
    }
    if (depth == 32) return;
    if (node->zero) walk(node->zero.get(), bits, depth + 1, fn);
    if (node->one) walk(node->one.get(), bits | (1u << (31 - depth)), depth + 1, fn);
  }

  Node root_;
  std::size_t size_ = 0;
};

/// Flat longest-prefix-match index over an *immutable* prefix set.
///
/// PrefixTrie spends ~88 bytes and up to 32 pointer hops per stored prefix;
/// at internet scale (10^6 prefixes per router) that is hundreds of MB and
/// cache-miss city. This index exploits the laminar structure of prefixes
/// (any two are nested or disjoint — they can never partially overlap) to
/// store one 20-byte slot per prefix in a sorted array:
///
///   * slots sorted by (start ascending, length ascending) put every
///     ancestor before its descendants, so one stack sweep computes each
///     slot's parent (nearest enclosing prefix);
///   * every prefix covering address x starts at or before x, so the last
///     slot with start <= x (ties -> longest) is the most specific
///     candidate, and all other covering prefixes are its ancestors: LPM is
///     a binary search plus a parent-chain walk.
///
/// build() is O(n log n), or O(n) when the prefixes arrive in Prefix order;
/// lookup is O(log n + chain) where the chain is bounded by nesting depth
/// (<= 32, in practice ~1-3).
class FlatPrefixIndex {
 public:
  static constexpr std::uint32_t kNotFound = 0xffffffffu;

  /// Build from `prefixes`; the value returned by lookup() is the
  /// *position* in this span. Duplicate prefixes keep the last position
  /// (mirroring Fib install-overwrite semantics).
  void build(std::span<const Prefix> prefixes);

  /// Position of the longest prefix covering `ip`, or kNotFound.
  std::uint32_t lookup(IpAddress ip) const;

  /// Distinct prefixes indexed.
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

 private:
  struct Slot {
    std::uint32_t start = 0;              // first covered address
    std::uint32_t end = 0;                // last covered address (inclusive)
    std::uint32_t value = kNotFound;      // caller's index
    std::uint32_t parent = kNotFound;     // slot index of nearest enclosing prefix
    std::uint8_t length = 0;
  };
  std::vector<Slot> slots_;  // sorted by (start asc, length asc)
};

/// Given a set of prefixes (from any number of FIBs), return the sorted,
/// de-duplicated start addresses of the atomic intervals they induce on the
/// 32-bit address space. Two addresses in the same atomic interval are
/// covered by exactly the same subset of the input prefixes, so forwarding
/// equivalence classes are unions of these intervals. Always contains 0.
std::vector<std::uint32_t> prefix_space_boundaries(const std::vector<Prefix>& prefixes);

}  // namespace hbguard
