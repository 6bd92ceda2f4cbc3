#include "hbguard/hbr/rule_matcher.hpp"

#include "hbguard/hbr/incremental.hpp"

namespace hbguard {

std::vector<InferredHbr> RuleMatchingInference::infer(std::span<const IoRecord> records) const {
  RuleMatchEngine engine(options_);
  std::vector<InferredHbr> edges;
  engine.add_all(records, edges);
  return edges;
}

}  // namespace hbguard
