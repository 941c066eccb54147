// Related-work comparison (Section 2): constraint-only inference (ShEx
// reordering, ref [1]) vs the paper's annotated-statistics approach (SS)
// vs plain global statistics (GS) and the statistics-free Jena heuristic.
// The paper's argument — "this optimization procedure is not based on
// actual data" — predicts ShEx lands between Jena and the statistics-based
// planners; this bench quantifies that on the LUBM workload.
#include <cstdio>

#include "baselines/shex/shex_heuristic.h"
#include "bench_common.h"
#include "bench_telemetry.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "sparql/parser.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace shapestats;

int main() {
  bench::BenchTelemetry telemetry("shex_vs_stats");
  std::printf("=== Related work: constraint inference (ShEx) vs statistics ===\n");
  bench::Dataset ds = bench::BuildLubm();

  // ShEx sees the *constraints* of the generated shapes, not the
  // statistics: strip the annotations.
  shacl::ShapesGraph constraints_only = ds.shapes;
  for (auto& ns : *constraints_only.mutable_shapes()) {
    ns.count.reset();
    for (auto& ps : ns.properties) {
      ps.count.reset();
      ps.distinct_count.reset();
      // Keep min/max: those are the constraints ShEx-style inference uses.
    }
  }
  baselines::ShexHeuristicProvider shex(constraints_only, ds.graph.dict(),
                                        ds.gs.rdf_type_id);

  struct Row {
    const char* name;
    uint64_t total_true_cost = 0;
    double total_ms = 0;
    int best = 0;
  };
  Row rows[] = {{"SS"}, {"GS"}, {"ShEx"}, {"Jena"}};
  auto queries = workload::LubmQueries();

  TablePrinter table({"query", "SS cost", "GS cost", "ShEx cost", "Jena cost"});
  for (const auto& q : queries) {
    auto parsed = sparql::ParseQuery(q.text);
    auto bgp = sparql::EncodeBgp(*parsed, ds.graph.dict());
    opt::Plan plans[4] = {
        opt::PlanJoinOrder(bgp, *ds.ss_est),
        opt::PlanJoinOrder(bgp, *ds.gs_est),
        opt::PlanJoinOrder(bgp, shex),
        baselines::PlanJenaLike(bgp, ds.gs.rdf_type_id),
    };
    uint64_t costs[4];
    uint64_t best = ~uint64_t{0};
    std::vector<std::string> cells{q.label};
    for (int i = 0; i < 4; ++i) {
      phys::ExecOptions eopts;
      eopts.max_intermediate_rows = 100'000'000;
      auto r = phys::ExecuteBgp(ds.graph, bgp, plans[i].order, eopts);
      costs[i] = r->TrueCost();
      rows[i].total_true_cost += costs[i];
      rows[i].total_ms += r->elapsed_ms;
      best = std::min(best, costs[i]);
      cells.push_back(WithCommas(costs[i]));
    }
    for (int i = 0; i < 4; ++i) {
      if (costs[i] <= best + best / 10) rows[i].best += 1;
    }
    table.AddRow(cells);
  }
  table.Print();

  std::printf("\nSummary over %zu LUBM queries (true plan cost = sum of "
              "intermediate results):\n", queries.size());
  for (const Row& row : rows) {
    std::printf("  %-5s total true cost %-12s total runtime %7.1f ms, "
                "near-best plans %d/%zu\n",
                row.name, WithCommas(row.total_true_cost).c_str(), row.total_ms,
                row.best, queries.size());
  }
  std::printf(
      "\nExpected shape: the data-driven planners (SS <= GS) dominate both\n"
      "statistics-free approaches. Constraint inference (ShEx) finds more\n"
      "near-best plans than the order-sensitive Jena heuristic, but without\n"
      "counts its failures are costlier — the paper's case for annotating\n"
      "shapes with actual statistics rather than reasoning over constraints.\n");
  return 0;
}
