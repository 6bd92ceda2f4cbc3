#include "hbguard/net/prefix_trie.hpp"

#include <algorithm>

namespace hbguard {

namespace {
inline std::uint32_t last_address(std::uint32_t start, std::uint8_t length) {
  return length >= 32 ? start : start | (0xffffffffu >> length);
}
}  // namespace

void FlatPrefixIndex::build(std::span<const Prefix> prefixes) {
  slots_.clear();
  slots_.reserve(prefixes.size());
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    Slot slot;
    slot.start = prefixes[i].address().bits();
    slot.length = prefixes[i].length();
    slot.end = last_address(slot.start, slot.length);
    slot.value = static_cast<std::uint32_t>(i);
    slots_.push_back(slot);
  }
  // (start asc, length asc) puts ancestors before descendants; `value` as
  // the final key makes the later duplicate sort last, so the dedup below
  // keeps it (install-overwrite semantics). Input already in Prefix order
  // (FIB views, SnapshotDelta's changed prefixes) skips the sort.
  auto slot_less = [](const Slot& a, const Slot& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.length != b.length) return a.length < b.length;
    return a.value < b.value;
  };
  if (!std::is_sorted(slots_.begin(), slots_.end(), slot_less)) {
    std::sort(slots_.begin(), slots_.end(), slot_less);
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (out > 0 && slots_[out - 1].start == slots_[i].start &&
        slots_[out - 1].length == slots_[i].length) {
      slots_[out - 1].value = slots_[i].value;
      continue;
    }
    slots_[out++] = slots_[i];
  }
  slots_.resize(out);

  // Parent sweep: the stack holds the chain of prefixes enclosing the
  // current position. Laminarity guarantees a stack prefix either encloses
  // the next slot or is wholly before it.
  std::vector<std::uint32_t> stack;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    while (!stack.empty() && slots_[stack.back()].end < slots_[i].start) stack.pop_back();
    slots_[i].parent = stack.empty() ? kNotFound : stack.back();
    stack.push_back(i);
  }
}

std::uint32_t FlatPrefixIndex::lookup(IpAddress ip) const {
  const std::uint32_t bits = ip.bits();
  // Last slot with start <= bits; the sort order makes it the longest such
  // prefix at that start, i.e. the most specific candidate. Every prefix
  // covering `bits` is an ancestor of it (see header), so walking the
  // parent chain finds the longest cover.
  auto it = std::upper_bound(slots_.begin(), slots_.end(), bits,
                             [](std::uint32_t value, const Slot& slot) {
                               return value < slot.start;
                             });
  if (it == slots_.begin()) return kNotFound;
  std::uint32_t index = static_cast<std::uint32_t>(std::distance(slots_.begin(), it)) - 1;
  while (index != kNotFound && slots_[index].end < bits) index = slots_[index].parent;
  return index == kNotFound ? kNotFound : slots_[index].value;
}

std::vector<std::uint32_t> prefix_space_boundaries(const std::vector<Prefix>& prefixes) {
  std::vector<std::uint32_t> points;
  points.reserve(prefixes.size() * 2 + 1);
  points.push_back(0);
  for (const Prefix& p : prefixes) {
    std::uint32_t start = p.address().bits();
    points.push_back(start);
    // One past the end of the prefix, unless it wraps (i.e. covers the top
    // of the address space), in which case there is no boundary after it.
    std::uint64_t end = std::uint64_t{start} + p.size();
    if (end <= 0xffffffffULL) points.push_back(static_cast<std::uint32_t>(end));
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

}  // namespace hbguard
