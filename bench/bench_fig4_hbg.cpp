// F4 — Fig. 4: the happens-before graph of the Fig. 2 scenario.
//
// "If we traverse the HBG in Fig. 4 starting from the vertex 'R1 install
// P -> Ext in FIB', we will reach the leaf node 'R2 configuration change',
// which is the cause of the policy violation."
//
// The bench rebuilds the HBG from the captured (observable) I/O stream via
// rule matching, prints the graph in GraphViz dot form, walks from the
// fault vertex to the root cause, and cross-checks against the ground-truth
// oracle graph.
#include "bench_util.hpp"

#include "hbguard/hbg/builder.hpp"
#include "hbguard/hbg/render.hpp"
#include "hbguard/hbr/rule_matcher.hpp"
#include "hbguard/provenance/root_cause.hpp"

using namespace hbguard;
using namespace hbguard::bench;

int main() {
  header("bench_fig4_hbg",
         "Fig. 4 — happens-before graph for the Fig. 2 scenario",
         "backward traversal from R1's FIB flip reaches the R2 config change");

  auto scenario = PaperScenario::make();
  scenario.converge_initial();
  std::size_t prelude = scenario.network->capture().records().size();
  ConfigVersion bad = scenario.misconfigure_r2_lp10();
  scenario.network->run_to_convergence();

  auto all_records = scenario.network->capture().records();
  auto hbg = HbgBuilder::build(all_records, RuleMatchingInference());

  // Restrict the printed graph to the incident (records after the prelude),
  // exactly the slice Fig. 4 shows.
  HappensBeforeGraph incident;
  for (std::size_t i = prelude; i < all_records.size(); ++i) {
    if (!all_records[i].prefix.has_value() || *all_records[i].prefix == scenario.prefix_p ||
        all_records[i].kind == IoKind::kConfigChange) {
      incident.add_vertex(all_records[i]);
    }
  }
  hbg.for_each_edge([&](const HbgEdge& edge) {
    if (incident.has_vertex(edge.from) && incident.has_vertex(edge.to)) {
      incident.add_edge(edge);
    }
  });

  std::printf("HBG of the incident (GraphViz dot):\n%s\n", to_dot(incident).c_str());

  // The fault: R1 installing the external route in its FIB (Fig. 4's
  // bottom-left vertex).
  IoId fault = kNoIo, cause_io = kNoIo;
  for (const IoRecord& r : all_records) {
    if (r.kind == IoKind::kFibUpdate && r.router == scenario.r1 && r.prefix.has_value() &&
        *r.prefix == scenario.prefix_p && !r.withdraw &&
        r.detail.find("ext(") != std::string::npos) {
      fault = r.id;
    }
    if (r.kind == IoKind::kConfigChange && r.config_version == bad) cause_io = r.id;
  }

  RootCauseAnalyzer analyzer;
  auto provenance = analyzer.analyze(hbg, fault);
  std::printf("provenance from fault vertex #%llu:\n%s\n",
              static_cast<unsigned long long>(fault),
              RootCauseAnalyzer::render(hbg, provenance).c_str());

  auto truth = HbgBuilder::build(all_records, GroundTruthInference());
  auto truth_provenance = analyzer.analyze(truth, fault);

  bool inferred_hit = false, truth_hit = false;
  for (const RootCause& cause : provenance.causes) {
    if (cause.io == cause_io) inferred_hit = true;
  }
  for (const RootCause& cause : truth_provenance.causes) {
    if (cause.io == cause_io) truth_hit = true;
  }

  Table table({"HBG source", "vertices", "edges", "root causes found",
               "names the LP=10 change"});
  table.row({"rule-matching inference", std::to_string(hbg.vertex_count()),
             std::to_string(hbg.edge_count()), std::to_string(provenance.causes.size()),
             inferred_hit ? "YES" : "no"});
  table.row({"ground-truth oracle", std::to_string(truth.vertex_count()),
             std::to_string(truth.edge_count()), std::to_string(truth_provenance.causes.size()),
             truth_hit ? "YES" : "no"});
  table.print();

  return inferred_hit && truth_hit ? 0 : 1;
}
