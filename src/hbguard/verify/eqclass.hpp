// Packet equivalence classes over a data-plane snapshot (§6, citing [7]).
//
// "Control plane computations tend to be highly repetitive across prefixes.
// Many destinations are treated alike by the network control plane and can
// therefore be grouped into few equivalence classes. Studies have shown
// that even large networks (100K prefixes) often have less than 15
// equivalence classes in total."
//
// The computation partitions the 32-bit destination space into atomic
// intervals induced by every FIB prefix in the snapshot, evaluates each
// interval's network-wide forwarding behaviour (per-router action vector),
// and groups intervals with identical behaviour.
//
// Internally behaviours are interned *semantic tokens* (one u32 per router
// per interval) rather than signature strings, so million-prefix tables
// cost megabytes, not gigabytes; each class's signature string is written
// once, from its first interval. A class's signature is exactly the
// per-router forwarding action of any destination inside it, so
// class_signature() answers "which class holds this destination?" from one
// lookup per router, without partitioning the space — the early-block
// model keys on that string.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hbguard/snapshot/snapshot.hpp"
#include "hbguard/verify/traffic.hpp"

namespace hbguard {

class ThreadPool;

struct EquivalenceClass {
  /// Atomic [start, end] address intervals (inclusive) in this class.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> intervals;
  /// The shared behaviour: per-router forwarding signature.
  std::string signature;
  /// A representative destination inside the class.
  IpAddress representative;
  /// Total addresses covered.
  std::uint64_t size = 0;
  /// Aggregate demand of the live prefixes rooted in this class (each
  /// present prefix contributes its TrafficWeights entry to the class
  /// containing its network address). 0 unless weights were attached;
  /// summed across classes this conserves the present prefixes' total
  /// weight exactly.
  std::uint64_t traffic_weight = 0;
};

struct EquivalenceClasses {
  std::vector<EquivalenceClass> classes;
  std::size_t atomic_intervals = 0;

  /// Index of the class containing `ip`; classes are disjoint and total.
  std::size_t class_of(IpAddress ip) const;
};

/// Compute the network-wide forwarding equivalence classes of a snapshot,
/// numbered by first appearance in address order. With a pool, the atomic
/// intervals are partitioned into per-thread batches whose FIB lookups run
/// concurrently; the grouping pass runs in interval order either way, so
/// the classes (and their order) are identical to the serial result.
EquivalenceClasses compute_equivalence_classes(const DataPlaneSnapshot& snapshot,
                                               ThreadPool* pool = nullptr);

/// As above, additionally aggregating `weights` onto each class's
/// traffic_weight (see EquivalenceClass::traffic_weight).
EquivalenceClasses compute_equivalence_classes(
    const DataPlaneSnapshot& snapshot, std::shared_ptr<const TrafficWeights> weights,
    ThreadPool* pool = nullptr);

/// The signature of the class containing `destination`: equal to
/// `classes[class_of(destination)].signature` of compute_equivalence_classes
/// on the same snapshot, from one lookup per router. `<router>:<token>;` per
/// router in id order, where the token is `-` (no route), `L` (local), `D`
/// (drop), `F<next hop>` or `X<session>`.
std::string class_signature(const DataPlaneSnapshot& snapshot, IpAddress destination);

}  // namespace hbguard
