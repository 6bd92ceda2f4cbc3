#include "hbguard/verify/eqclass.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "hbguard/net/prefix_trie.hpp"
#include "hbguard/util/thread_pool.hpp"

namespace hbguard {

namespace {

/// One router's part of a signature. The class materializer and
/// class_signature() both write through here, so the two cannot drift.
void append_action(std::string& signature, RouterId router, const FibEntry* entry) {
  signature += std::to_string(router);
  signature += ':';
  if (entry == nullptr) {
    signature += '-';
  } else {
    switch (entry->action) {
      case FibEntry::Action::kLocal: signature += 'L'; break;
      case FibEntry::Action::kDrop: signature += 'D'; break;
      case FibEntry::Action::kForward:
        signature += 'F';
        signature += std::to_string(entry->next_hop);
        break;
      case FibEntry::Action::kExternal:
        signature += 'X';
        signature += entry->external_session;
        break;
    }
  }
  signature += ';';
}

/// Dense ids for forwarding actions: two entries share an id exactly when
/// append_action writes the same token for them. Session keys view the
/// snapshot's entries, which outlive the computation.
class ActionTokens {
 public:
  std::uint32_t id_of(const FibEntry* entry) {
    if (entry == nullptr) return 0;  // "-"
    switch (entry->action) {
      case FibEntry::Action::kLocal: return 1;
      case FibEntry::Action::kDrop: return 2;
      case FibEntry::Action::kForward: return intern(forward_, entry->next_hop);
      case FibEntry::Action::kExternal:
        return intern(external_, std::string_view(entry->external_session));
    }
    return 0;
  }

 private:
  template <typename Map, typename Key>
  std::uint32_t intern(Map& ids, const Key& key) {
    auto [it, fresh] = ids.try_emplace(key, next_);
    if (fresh) ++next_;
    return it->second;
  }

  std::uint32_t next_ = 3;
  std::unordered_map<RouterId, std::uint32_t> forward_;          // next hop -> id
  std::unordered_map<std::string_view, std::uint32_t> external_;  // session -> id
};

struct RowHash {
  std::size_t operator()(const std::vector<std::uint32_t>& row) const {
    std::size_t h = 1469598103934665603ull;
    for (std::uint32_t v : row) {
      h ^= v;
      h *= 1099511628211ull;
    }
    return h;
  }
};

}  // namespace

EquivalenceClasses compute_equivalence_classes(const DataPlaneSnapshot& snapshot,
                                               ThreadPool* pool) {
  return compute_equivalence_classes(snapshot, nullptr, pool);
}

EquivalenceClasses compute_equivalence_classes(
    const DataPlaneSnapshot& snapshot, std::shared_ptr<const TrafficWeights> weights,
    ThreadPool* pool) {
  std::vector<RouterId> routers;
  routers.reserve(snapshot.routers.size());
  for (const auto& [router, view] : snapshot.routers) routers.push_back(router);
  const std::vector<Prefix> present = snapshot.all_prefixes();  // sorted, distinct
  const std::vector<std::uint32_t> bounds = prefix_space_boundaries(present);

  EquivalenceClasses out;
  out.atomic_intervals = bounds.size();
  const std::size_t router_count = routers.size();
  const bool parallel = pool != nullptr && pool->size() > 1 && bounds.size() > 1;

  // Process in blocks: the FIB lookups (the dominant cost — one LPM per
  // router per interval) fan out across the pool; tokenizing the resulting
  // entry pointers and grouping rows is serial hash-map work in interval
  // order, so a row's first interval founds its class and class ids are
  // the same at any thread count.
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  ActionTokens tokens;
  std::unordered_map<std::vector<std::uint32_t>, std::uint32_t, RowHash> class_of_row;
  std::vector<const FibEntry*> entries;
  std::vector<std::uint32_t> row(router_count);
  std::size_t next_present = 0;
  for (std::size_t base = 0; base < bounds.size(); base += kBlock) {
    const std::size_t count = std::min(kBlock, bounds.size() - base);
    entries.assign(count * router_count, nullptr);
    auto fill = [&](std::size_t i) {
      IpAddress destination(bounds[base + i]);
      const FibEntry** out_row = entries.data() + i * router_count;
      for (std::size_t r = 0; r < router_count; ++r) {
        out_row[r] = snapshot.lookup(routers[r], destination);
      }
    };
    if (parallel && count > 1) {
      std::size_t batches = std::min<std::size_t>(count, pool->size() * 4);
      std::size_t per_batch = (count + batches - 1) / batches;
      pool->parallel_for(batches, [&](std::size_t batch) {
        std::size_t lo = batch * per_batch;
        std::size_t hi = std::min(count, lo + per_batch);
        for (std::size_t i = lo; i < hi; ++i) fill(i);
      });
    } else {
      for (std::size_t i = 0; i < count; ++i) fill(i);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t interval = base + i;
      const std::uint32_t start = bounds[interval];
      const std::uint32_t end =
          interval + 1 < bounds.size() ? bounds[interval + 1] - 1 : 0xffffffffu;
      const FibEntry* const* in = entries.data() + i * router_count;
      for (std::size_t r = 0; r < router_count; ++r) row[r] = tokens.id_of(in[r]);
      auto [it, fresh] =
          class_of_row.try_emplace(row, static_cast<std::uint32_t>(out.classes.size()));
      if (fresh) {
        EquivalenceClass& founded = out.classes.emplace_back();
        founded.representative = IpAddress(start);
        founded.signature.reserve(router_count * 8);
        for (std::size_t r = 0; r < router_count; ++r) {
          append_action(founded.signature, routers[r], in[r]);
        }
      }
      EquivalenceClass& klass = out.classes[it->second];
      klass.intervals.emplace_back(start, end);
      klass.size += std::uint64_t{end} - start + 1;
      // Each present prefix's demand lands on the class of the interval its
      // network address starts. Every such address starts an interval and
      // `present` is sorted by address, so each prefix counts exactly once.
      for (; weights != nullptr && next_present < present.size() &&
             present[next_present].address().bits() == start;
           ++next_present) {
        klass.traffic_weight += weights->weight_of(present[next_present]);
      }
    }
  }
  return out;
}

std::string class_signature(const DataPlaneSnapshot& snapshot, IpAddress destination) {
  std::string signature;
  for (const auto& [router, view] : snapshot.routers) {
    append_action(signature, router, snapshot.lookup(router, destination));
  }
  return signature;
}

std::size_t EquivalenceClasses::class_of(IpAddress ip) const {
  for (std::size_t i = 0; i < classes.size(); ++i) {
    for (const auto& [start, end] : classes[i].intervals) {
      if (ip.bits() >= start && ip.bits() <= end) return i;
    }
  }
  return classes.size();  // unreachable for a total partition
}

}  // namespace hbguard
