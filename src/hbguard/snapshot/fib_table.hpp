// One router's FIB as the verifier reads it: the entries and their
// longest-prefix-match index in one container.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "hbguard/net/prefix_trie.hpp"
#include "hbguard/rib/fib.hpp"

namespace hbguard {

/// A FIB view's entries plus a PrefixIndex over them that every update
/// keeps current. Entries sit in stable slots: a replacement overwrites its
/// slot, an erase frees it, an insert reuses a freed slot or appends, and no
/// update moves or re-addresses any other entry. Iteration yields entries
/// in Prefix order, as Fib::entries() does. lookup() and find() are plain
/// const reads, safe from any number of threads while nothing updates the
/// table.
class FibTable {
 public:
  /// One operation of a batch: install `*entry` (insert or replace), or
  /// erase `prefix` when `entry` is null.
  struct Update {
    Prefix prefix;
    const FibEntry* entry = nullptr;
  };

  FibTable() = default;
  /// Bulk build: one sort (skipped when already in Prefix order) and one
  /// index pass. A duplicate prefix keeps its last entry.
  explicit FibTable(std::vector<FibEntry> entries);
  FibTable(std::initializer_list<FibEntry> entries) : FibTable(std::vector<FibEntry>(entries)) {}

  /// Longest-prefix match; nullptr if nothing covers `destination`.
  const FibEntry* lookup(IpAddress destination) const;
  /// Exact-prefix fetch.
  const FibEntry* find(const Prefix& prefix) const;

  void install(const FibEntry& entry);
  /// True if `prefix` was present.
  bool erase(const Prefix& prefix);
  /// Apply `updates`, sorted by prefix and distinct (withdrawing an absent
  /// prefix is a no-op), with one index patch.
  void apply(std::span<const Update> updates);
  void clear();

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FibEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = const FibEntry*;
    using reference = const FibEntry&;

    const_iterator() = default;
    reference operator*() const { return table_->slot(table_->index_.value_at(position_)); }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      ++position_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++position_;
      return before;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class FibTable;
    const_iterator(const FibTable* table, std::size_t position)
        : table_(table), position_(position) {}
    const FibTable* table_ = nullptr;
    std::size_t position_ = 0;
  };
  using iterator = const_iterator;
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Same entries in the same order.
  bool operator==(const FibTable& other) const;
  bool operator==(const std::vector<FibEntry>& entries) const;

 private:
  /// Room for 256 entries (14 KB) per chunk: a 4,096-entry view fills 16,
  /// where 64-entry chunks cost a table dump measurably more.
  static constexpr std::uint32_t kChunkSlots = 256;

  /// Room for kChunkSlots entries, filled in slot order and never
  /// reallocated, so growing never moves a stored entry. Only slots handed
  /// out are constructed, and a copy reserves the same room.
  struct Chunk {
    std::vector<FibEntry> slots;

    Chunk() { slots.reserve(kChunkSlots); }
    Chunk(const Chunk& other) : Chunk() { slots.assign(other.slots.begin(), other.slots.end()); }
    Chunk(Chunk&&) noexcept = default;
    Chunk& operator=(const Chunk& other) { return *this = Chunk(other); }
    Chunk& operator=(Chunk&&) noexcept = default;
  };

  FibEntry& slot(std::uint32_t id) { return chunks_[id / kChunkSlots].slots[id % kChunkSlots]; }
  const FibEntry& slot(std::uint32_t id) const {
    return chunks_[id / kChunkSlots].slots[id % kChunkSlots];
  }
  /// Store `entry` in a freed slot, or in a new one past the last.
  std::uint32_t store(FibEntry entry);

  PrefixIndex index_;  // prefix -> slot id
  std::vector<Chunk> chunks_;
  std::vector<std::uint32_t> free_;  // freed slot ids
};

}  // namespace hbguard
