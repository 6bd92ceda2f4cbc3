// Id lookups over a captured record sequence, for tests.
//
// The capture store is addressed by position, not by id. Tests that start
// from an id (a true cause, a message id, an inferred edge's endpoint)
// index the records once here and look each id up in O(1).
#pragma once

#include <span>
#include <unordered_map>

#include "hbguard/capture/io_record.hpp"

namespace hbguard {

class RecordIndex {
 public:
  /// Index `records` by id. The pointers handed out borrow `records`, so
  /// rebuild the index after the store appends.
  explicit RecordIndex(std::span<const IoRecord> records) {
    by_id_.reserve(records.size());
    for (const IoRecord& record : records) by_id_.emplace(record.id, &record);
  }

  /// The record with `id`, or nullptr when none was stored (lost, or never
  /// captured).
  const IoRecord* find(IoId id) const {
    auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }

 private:
  std::unordered_map<IoId, const IoRecord*> by_id_;
};

}  // namespace hbguard
