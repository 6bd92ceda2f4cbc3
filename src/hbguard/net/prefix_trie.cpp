#include "hbguard/net/prefix_trie.hpp"

#include <algorithm>
#include <bit>

namespace hbguard {

namespace {
inline std::uint32_t last_address(std::uint32_t start, std::uint8_t length) {
  return length >= 32 ? start : start | (0xffffffffu >> length);
}

/// Prefix order as one integer: start, then length.
inline std::uint64_t order_key(std::uint32_t start, std::uint8_t length) {
  return (std::uint64_t{start} << 8) | length;
}
inline std::uint64_t order_key(const Prefix& prefix) {
  return order_key(prefix.address().bits(), prefix.length());
}

/// Leading bits `a` and `b` share: 32 when they are equal.
inline int shared_length(std::uint32_t a, std::uint32_t b) {
  return a == b ? 32 : std::countl_zero(a ^ b);
}

/// Mask bits 0..`length` (`length` at most 31).
inline std::uint32_t lengths_through(int length) { return 0xffffffffu >> (31 - length); }
}  // namespace

PrefixIndex::PrefixIndex(std::span<const Item> items) {
  slots_.reserve(items.size());
  for (const Item& item : items) {
    slots_.push_back({item.prefix.address().bits(), 0, item.value, item.prefix.length()});
    slots_.back().ancestors = ancestors_at(slots_.size() - 1);
  }
}

std::size_t PrefixIndex::lower_bound(const Prefix& prefix, std::size_t lo, std::size_t hi) const {
  const std::uint64_t key = order_key(prefix);
  auto it = std::lower_bound(slots_.begin() + static_cast<std::ptrdiff_t>(lo),
                             slots_.begin() + static_cast<std::ptrdiff_t>(hi), key,
                             [](const Slot& slot, std::uint64_t bound) {
                               return order_key(slot.start, slot.length) < bound;
                             });
  return static_cast<std::size_t>(it - slots_.begin());
}

std::uint32_t PrefixIndex::ancestors_at(std::size_t at) const {
  const Slot& slot = slots_[at];
  if (at == 0 || slot.length == 0) return 0;
  // Every ancestor of this slot is its predecessor or one of the
  // predecessor's ancestors (laminarity); keep those no longer than the
  // bits both starts share, and strictly shorter than this slot.
  const Slot& before = slots_[at - 1];
  std::uint32_t covering = before.ancestors;
  if (before.length < 32) covering |= 1u << before.length;
  int limit = std::min(shared_length(before.start, slot.start), slot.length - 1);
  return covering & lengths_through(limit);
}

void PrefixIndex::mark_descendants(std::size_t from, const Prefix& prefix, bool set) {
  if (prefix.length() >= 32) return;  // a /32 covers no other prefix
  const std::uint32_t bit = 1u << prefix.length();
  const std::uint32_t last = last_address(prefix.address().bits(), prefix.length());
  for (std::size_t i = from; i < slots_.size() && slots_[i].start <= last; ++i) {
    if (set) {
      slots_[i].ancestors |= bit;
    } else {
      slots_[i].ancestors &= ~bit;
    }
  }
}

std::uint32_t PrefixIndex::lookup(IpAddress ip) const {
  const std::uint32_t bits = ip.bits();
  // The last slot starting at or before `bits` (ties: the longest) is the
  // most specific candidate; every other prefix covering `bits` is one of
  // its ancestors, and those still covering `bits` are the ones no longer
  // than the leading bits `bits` shares with the candidate.
  auto it = std::upper_bound(slots_.begin(), slots_.end(), bits,
                             [](std::uint32_t value, const Slot& slot) {
                               return value < slot.start;
                             });
  if (it == slots_.begin()) return kNotFound;
  const Slot& candidate = *(it - 1);
  const int shared = shared_length(bits, candidate.start);
  if (candidate.length <= shared) return candidate.value;
  const std::uint32_t covering = candidate.ancestors & lengths_through(shared);
  if (covering == 0) return kNotFound;
  const auto length = static_cast<std::uint8_t>(std::bit_width(covering) - 1);
  const auto hi = static_cast<std::size_t>(it - slots_.begin()) - 1;
  return slots_[lower_bound(Prefix(ip, length), 0, hi)].value;
}

std::uint32_t PrefixIndex::find(const Prefix& prefix) const {
  std::size_t at = lower_bound(prefix, 0, slots_.size());
  if (at == slots_.size() || order_key(slots_[at].start, slots_[at].length) != order_key(prefix)) {
    return kNotFound;
  }
  return slots_[at].value;
}

void PrefixIndex::patch(std::span<const Prefix> erased, std::span<const Item> inserted) {
  // One in-place merge, no scratch buffer: erases compact forward from the
  // first erased slot, then inserts merge backward from the end.
  std::size_t first_erased = erased.empty() ? 0 : lower_bound(erased.front(), 0, slots_.size());
  if (!erased.empty()) {
    std::size_t write = first_erased;
    auto next = erased.begin();
    for (std::size_t read = write; read < slots_.size(); ++read) {
      if (next != erased.end() &&
          order_key(slots_[read].start, slots_[read].length) == order_key(*next)) {
        ++next;
        continue;
      }
      slots_[write++] = slots_[read];
    }
    slots_.resize(write);
  }
  std::size_t read = slots_.size();
  slots_.resize(read + inserted.size());
  std::size_t write = slots_.size();
  for (auto item = inserted.rbegin(); item != inserted.rend(); ++item) {
    const std::uint64_t key = order_key(item->prefix);
    while (read > 0 && key < order_key(slots_[read - 1].start, slots_[read - 1].length)) {
      slots_[--write] = slots_[--read];
    }
    slots_[--write] = Slot{item->prefix.address().bits(), 0, item->value, item->prefix.length()};
  }

  // Masks: an erased prefix leaves its descendants' masks; then, in order,
  // each inserted slot derives its own from its (by then current)
  // predecessor and enters its descendants'.
  std::size_t at = first_erased;
  for (const Prefix& prefix : erased) {
    at = lower_bound(prefix, at, slots_.size());
    mark_descendants(at, prefix, /*set=*/false);
  }
  at = write;  // where the first insert landed
  for (const Item& item : inserted) {
    at = lower_bound(item.prefix, at, slots_.size());
    slots_[at].ancestors = ancestors_at(at);
    mark_descendants(at + 1, item.prefix, /*set=*/true);
  }
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
