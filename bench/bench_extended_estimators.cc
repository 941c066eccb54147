// Extension estimators beyond the paper's Figure 4 line-up:
//  * ECS — Extended Characteristic Sets (ref [18]; the paper used ECS to
//    order non-star queries, and names its chain-only support as the
//    limitation),
//  * Sampling — WanderJoin-style random walks (the G-CARE [20] family the
//    paper's related work says outperforms RDF-specific summaries).
// Reports per-query q-errors next to SS / GS / CS on the LUBM workload and
// the pair-index overhead.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "baselines/charsets/char_pairs.h"
#include "baselines/sampling/wander_join.h"
#include "bench_common.h"
#include "bench_telemetry.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "sparql/parser.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace shapestats;

int main() {
  bench::BenchTelemetry telemetry("extended_estimators");
  std::printf("=== Extension estimators: ECS and sampling vs the paper's ===\n");
  bench::Dataset ds = bench::BuildLubm();

  auto pairs = baselines::CharPairIndex::Build(ds.graph, *ds.cs);
  if (!pairs.ok()) {
    std::fprintf(stderr, "%s\n", pairs.status().ToString().c_str());
    return 1;
  }
  baselines::SamplingEstimator sampler(ds.graph);

  std::printf("pair index: %zu pairs, %.1f ms build (CS alone: %.1f ms), "
              "%.0f KB (CS alone: %.0f KB)\n",
              pairs->NumPairs(), pairs->build_ms(), ds.cs->build_ms(),
              pairs->MemoryBytes() / 1024.0, ds.cs->MemoryBytes() / 1024.0);

  const card::PlannerStatsProvider* providers[] = {
      ds.ss_est.get(), ds.gs_est.get(), ds.cs.get(), &pairs.value(), &sampler};

  TablePrinter table({"query", "SS", "GS", "CS", "ECS", "Sampling", "true card"});
  std::vector<std::vector<double>> qerrors(5);
  for (const auto& q : workload::LubmQueries()) {
    auto parsed = sparql::ParseQuery(q.text);
    auto bgp = sparql::EncodeBgp(*parsed, ds.graph.dict());
    phys::ExecOptions eopts;
    eopts.max_intermediate_rows = 100'000'000;
    auto plan = opt::PlanJoinOrder(bgp, *ds.gs_est);
    auto truth = phys::ExecuteBgp(ds.graph, bgp, plan.order, eopts);
    std::vector<std::string> row{q.label};
    for (int i = 0; i < 5; ++i) {
      double est = providers[i]->EstimateResultCardinality(bgp);
      double qe = bench::QError(est, static_cast<double>(truth->num_results));
      qerrors[i].push_back(qe);
      row.push_back(CompactDouble(qe));
    }
    row.push_back(WithCommas(truth->num_results));
    table.AddRow(row);
  }
  table.Print();

  const char* names[] = {"SS", "GS", "CS", "ECS", "Sampling"};
  std::printf("\nmedian / max q-error:\n");
  for (int i = 0; i < 5; ++i) {
    std::vector<double> sorted = qerrors[i];
    std::sort(sorted.begin(), sorted.end());
    std::printf("  %-8s median %8s   max %10s\n", names[i],
                CompactDouble(sorted[sorted.size() / 2]).c_str(),
                CompactDouble(sorted.back()).c_str());
  }

  // The pair statistics act on pairwise join estimates, i.e. on *plan
  // choice*: compare the executed cost of CS-ordered vs ECS-ordered plans.
  uint64_t cs_cost = 0, ecs_cost = 0;
  int plans_changed = 0;
  for (const auto& q : workload::LubmQueries()) {
    auto parsed = sparql::ParseQuery(q.text);
    auto bgp = sparql::EncodeBgp(*parsed, ds.graph.dict());
    auto cs_plan = opt::PlanJoinOrder(bgp, *ds.cs);
    auto ecs_plan = opt::PlanJoinOrder(bgp, *pairs);
    phys::ExecOptions eopts;
    eopts.max_intermediate_rows = 100'000'000;
    cs_cost += phys::ExecuteBgp(ds.graph, bgp, cs_plan.order, eopts)->TrueCost();
    ecs_cost += phys::ExecuteBgp(ds.graph, bgp, ecs_plan.order, eopts)->TrueCost();
    if (cs_plan.order != ecs_plan.order) ++plans_changed;
  }
  std::printf("\nplan quality over the workload: CS true cost %s vs ECS %s "
              "(%d/%zu plans changed)\n",
              WithCommas(cs_cost).c_str(), WithCommas(ecs_cost).c_str(),
              plans_changed, workload::LubmQueries().size());
  std::printf(
      "\nExpected shape: ECS repairs part of CS's chain underestimation at\n"
      "the cost of a larger index; sampling is accurate (G-CARE's finding)\n"
      "but pays per-query walk time instead of preprocessing.\n");
  return 0;
}
