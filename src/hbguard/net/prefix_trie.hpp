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

/// Longest-prefix-match index over a changing prefix set, mapping each
/// prefix to a caller's 32-bit value (a FibTable's entry slot).
///
/// Slots sit in one array sorted by Prefix order (start ascending, then
/// length ascending), which puts every ancestor before its descendants. By
/// laminarity (two prefixes are nested or disjoint), every prefix covering
/// address x is the last slot starting at or before x or one of its
/// ancestors. No slot stores a position: each carries `ancestors`, a mask
/// with bit L set when a stored prefix of length L strictly covers it. So
/// LPM is a binary search, a match-length test against that slot, and at
/// most one exact search for the longest ancestor that still covers x.
///
/// Updates shift the small sorted slots, never the caller's values, and
/// patch masks only inside each changed prefix's range: an inserted slot
/// takes its mask from its predecessor, and a changed prefix sets or clears
/// its length bit on its descendants, which follow it contiguously.
class PrefixIndex {
 public:
  static constexpr std::uint32_t kNotFound = 0xffffffffu;

  struct Item {
    Prefix prefix;
    std::uint32_t value = kNotFound;
  };

  PrefixIndex() = default;
  /// Index `items`, sorted by prefix and distinct, in one pass.
  explicit PrefixIndex(std::span<const Item> items);

  /// Value of the longest prefix covering `ip`, or kNotFound.
  std::uint32_t lookup(IpAddress ip) const;
  /// Value stored at exactly `prefix`, or kNotFound.
  std::uint32_t find(const Prefix& prefix) const;

  /// Apply one batch in place: remove `erased` (every one present) and add
  /// `inserted` (none present once `erased` is gone), both sorted by prefix
  /// and distinct. Slots before the first change never move.
  void patch(std::span<const Prefix> erased, std::span<const Item> inserted);

  /// The value of the `i`-th stored prefix in Prefix order.
  std::uint32_t value_at(std::size_t i) const { return slots_[i].value; }
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  void clear() { slots_.clear(); }

 private:
  struct Slot {
    std::uint32_t start = 0;      // first covered address
    std::uint32_t ancestors = 0;  // bit L: a stored length-L prefix covers this one
    std::uint32_t value = kNotFound;
    std::uint8_t length = 0;
  };

  /// First position in [lo, hi) whose slot is not ordered before `prefix`.
  std::size_t lower_bound(const Prefix& prefix, std::size_t lo, std::size_t hi) const;
  /// `slots_[at]`'s ancestors, derived from its predecessor's (which must
  /// be current).
  std::uint32_t ancestors_at(std::size_t at) const;
  /// Set or clear `prefix`'s length bit on the slots from `from` on that it
  /// strictly covers.
  void mark_descendants(std::size_t from, const Prefix& prefix, bool set);

  std::vector<Slot> slots_;  // sorted by (start, length)
};

/// Given a set of prefixes (from any number of FIBs), return the sorted,
/// de-duplicated start addresses of the atomic intervals they induce on the
/// 32-bit address space. Two addresses in the same atomic interval are
/// covered by exactly the same subset of the input prefixes, so forwarding
/// equivalence classes are unions of these intervals. Always contains 0.
std::vector<std::uint32_t> prefix_space_boundaries(const std::vector<Prefix>& prefixes);

}  // namespace hbguard
