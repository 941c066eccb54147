// Optimizer tour: plans one query with every approach from the paper's
// evaluation (SS, GS, Jena, GDB, CS, SumRDF), executes each plan, and
// prints join orders, estimated vs true cost, result-cardinality q-error,
// and runtime — Figure 4 in miniature, for a single query.
//
// Usage:
//   optimizer_tour            # paper's example query Q on LUBM
//   optimizer_tour <label>    # any LUBM workload query, e.g. F3 or Q9
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace shapestats;

int main(int argc, char** argv) {
  std::string label = argc >= 2 ? argv[1] : "C0";
  std::string text;
  for (const auto& q : workload::LubmQueries()) {
    if (q.label == label) text = q.text;
  }
  if (text.empty()) {
    std::fprintf(stderr, "unknown LUBM query label '%s'\n", label.c_str());
    std::fprintf(stderr, "available:");
    for (const auto& q : workload::LubmQueries()) {
      std::fprintf(stderr, " %s", q.label.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  std::printf("building LUBM context (data + shapes + all statistics)...\n");
  bench::Dataset ds = bench::BuildLubm();

  auto parsed = sparql::ParseQuery(text);
  auto bgp = sparql::EncodeBgp(*parsed, ds.graph.dict());
  std::printf("\nquery %s (%s, %zu triple patterns):\n%s\n", label.c_str(),
              sparql::QueryShapeName(sparql::ClassifyShape(bgp)),
              bgp.patterns.size(), text.c_str());

  TablePrinter table({"approach", "join order", "est cost", "true cost",
                      "est result", "true result", "q-error", "runtime ms"});
  for (bench::Approach a : bench::AllApproaches()) {
    opt::Plan plan = bench::PlanFor(ds, a, bgp);
    phys::ExecOptions eopts;
    eopts.timeout_ms = 10000;
    auto r = phys::ExecuteBgp(ds.graph, bgp, plan.order, eopts);
    const card::PlannerStatsProvider* provider = bench::ProviderFor(ds, a);
    double est_result = provider ? provider->EstimateResultCardinality(bgp) : 0;

    std::string order;
    for (size_t i = 0; i < plan.order.size(); ++i) {
      // Appended piecewise: gcc 12's -Wrestrict false-fires on
      // operator+(const char*, std::string&&) under -O2.
      if (i) order += ' ';
      order += std::to_string(plan.order[i] + 1);
    }
    table.AddRow({bench::ApproachName(a), order,
                  provider ? WithCommas(static_cast<uint64_t>(plan.total_cost))
                           : "-",
                  WithCommas(r->TrueCost()),
                  provider ? WithCommas(static_cast<uint64_t>(est_result)) : "-",
                  WithCommas(r->num_results),
                  provider ? CompactDouble(bench::QError(
                                 est_result, static_cast<double>(r->num_results)))
                           : "-",
                  CompactDouble(r->elapsed_ms) + (r->timed_out ? " TO" : "")});
  }
  table.Print();
  std::printf(
      "\n(join order positions refer to the triple patterns in textual\n"
      "order, 1-based; Jena plans carry no estimates)\n");
  return 0;
}
