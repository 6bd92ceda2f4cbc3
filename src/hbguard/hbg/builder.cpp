#include "hbguard/hbg/builder.hpp"

namespace hbguard {

HappensBeforeGraph HbgBuilder::build(std::span<const IoRecord> records,
                                     const HbrInferencer& inferencer,
                                     const std::vector<IoRecord>* store) {
  HappensBeforeGraph graph;
  if (store != nullptr && !records.empty()) {
    graph.attach_record_store(store);
    // `records` is a subspan of *store, so pointer arithmetic against the
    // store's base yields the records' store indices.
    std::size_t base = static_cast<std::size_t>(records.data() - store->data());
    for (std::size_t i = 0; i < records.size(); ++i) {
      graph.add_vertex_ref(records[i].id, static_cast<std::uint32_t>(base + i));
    }
  } else {
    for (const IoRecord& record : records) graph.add_vertex(record);
  }
  for (const InferredHbr& edge : inferencer.infer(records)) {
    if (graph.has_vertex(edge.from) && graph.has_vertex(edge.to)) {
      graph.add_edge(edge.from, edge.to, edge.confidence, edge.rule);
    }
  }
  graph.compact();
  return graph;
}

}  // namespace hbguard
