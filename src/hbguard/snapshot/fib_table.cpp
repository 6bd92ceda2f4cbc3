#include "hbguard/snapshot/fib_table.hpp"

#include <algorithm>
#include <utility>

namespace hbguard {

FibTable::FibTable(std::vector<FibEntry> entries) {
  auto before = [](const FibEntry& a, const FibEntry& b) { return a.prefix < b.prefix; };
  if (!std::is_sorted(entries.begin(), entries.end(), before)) {
    std::stable_sort(entries.begin(), entries.end(), before);
  }
  std::vector<PrefixIndex::Item> items;
  items.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    // Stable sort keeps duplicates in the given order: the last one wins.
    if (i + 1 < entries.size() && entries[i + 1].prefix == entries[i].prefix) continue;
    items.push_back({entries[i].prefix, store(std::move(entries[i]))});
  }
  index_ = PrefixIndex(items);
}

const FibEntry* FibTable::lookup(IpAddress destination) const {
  std::uint32_t id = index_.lookup(destination);
  return id == PrefixIndex::kNotFound ? nullptr : &slot(id);
}

const FibEntry* FibTable::find(const Prefix& prefix) const {
  std::uint32_t id = index_.find(prefix);
  return id == PrefixIndex::kNotFound ? nullptr : &slot(id);
}

void FibTable::install(const FibEntry& entry) {
  Update update{entry.prefix, &entry};
  apply({&update, 1});
}

bool FibTable::erase(const Prefix& prefix) {
  if (index_.find(prefix) == PrefixIndex::kNotFound) return false;
  Update update{prefix, nullptr};
  apply({&update, 1});
  return true;
}

std::uint32_t FibTable::store(FibEntry entry) {
  if (!free_.empty()) {
    std::uint32_t id = free_.back();
    free_.pop_back();
    slot(id) = std::move(entry);
    return id;
  }
  if (chunks_.empty() || chunks_.back().slots.size() == kChunkSlots) chunks_.emplace_back();
  chunks_.back().slots.push_back(std::move(entry));
  return static_cast<std::uint32_t>((chunks_.size() - 1) * kChunkSlots +
                                    chunks_.back().slots.size() - 1);
}

void FibTable::apply(std::span<const Update> updates) {
  std::vector<Prefix> erased;
  std::vector<PrefixIndex::Item> inserted;
  inserted.reserve(updates.size());
  for (const Update& update : updates) {
    std::uint32_t id = index_.find(update.prefix);
    if (id == PrefixIndex::kNotFound) {
      if (update.entry == nullptr) continue;
      inserted.push_back({update.prefix, store(*update.entry)});
    } else if (update.entry != nullptr) {
      slot(id) = *update.entry;  // a replacement keeps its slot
    } else {
      slot(id) = FibEntry{};
      free_.push_back(id);
      erased.push_back(update.prefix);
    }
  }
  if (!erased.empty() || !inserted.empty()) index_.patch(erased, inserted);
}

void FibTable::clear() {
  index_.clear();
  chunks_.clear();
  free_.clear();
}

bool FibTable::operator==(const FibTable& other) const {
  return std::equal(begin(), end(), other.begin(), other.end());
}

bool FibTable::operator==(const std::vector<FibEntry>& entries) const {
  return std::equal(begin(), end(), entries.begin(), entries.end());
}

}  // namespace hbguard
