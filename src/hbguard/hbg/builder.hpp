// HBG construction from a capture stream.
#pragma once

#include <span>
#include <vector>

#include "hbguard/hbg/graph.hpp"
#include "hbguard/hbr/inference.hpp"

namespace hbguard {

class HbgBuilder {
 public:
  /// Build an HBG whose edges come from an inference strategy (what the
  /// system can do in practice). When `store` is non-null, `records` must be
  /// a subspan of `*store` (typically &CaptureHub::records()); the graph then
  /// references the store instead of copying every record.
  static HappensBeforeGraph build(std::span<const IoRecord> records,
                                  const HbrInferencer& inferencer,
                                  const std::vector<IoRecord>* store = nullptr);
};

}  // namespace hbguard
