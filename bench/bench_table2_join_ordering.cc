// Reproduces Table 2 of the paper: the join orderings computed for the
// example query Q (Figure 2) over LUBM using (a) global statistics and
// (b) shape statistics — per ordered triple pattern: DSC, DOC, estimated
// TP cardinality (E_TP), estimated join cardinality (EZ Card), and the
// true join cardinality (TZ Card), with the summed totals.
#include <cstdio>

#include "bench_common.h"
#include "bench_telemetry.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "rdf/vocab.h"
#include "sparql/parser.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace shapestats;

namespace {

// Compact rendering: local names, 'a' for rdf:type (Table 2 style).
std::string PrettyPattern(const sparql::TriplePattern& tp) {
  auto pretty = [](const sparql::PatternTerm& t) -> std::string {
    if (sparql::IsVar(t)) return "?" + sparql::AsVar(t).name;
    const rdf::Term& term = sparql::AsTerm(t);
    if (term.lexical == rdf::vocab::kRdfType) return "a";
    if (term.is_iri()) {
      size_t cut = term.lexical.find_last_of("#/");
      return ":" + (cut == std::string::npos ? term.lexical
                                             : term.lexical.substr(cut + 1));
    }
    return term.ToNTriples();
  };
  return pretty(tp.s) + " " + pretty(tp.p) + " " + pretty(tp.o);
}

void PrintOrdering(const bench::Dataset& ds, bench::Approach approach,
                   const char* title) {
  auto parsed = sparql::ParseQuery(workload::LubmExampleQuery());
  auto bgp = sparql::EncodeBgp(*parsed, ds.graph.dict());
  opt::Plan plan = bench::PlanFor(ds, approach, bgp);
  auto truth = phys::ExecuteBgp(ds.graph, bgp, plan.order);

  std::printf("\n%s\n", title);
  TablePrinter table({"#", "Triple Pattern (TP)", "DSC", "DOC", "E_TP Card",
                      "EZ Card", "TZ Card"});
  double est_total = 0;
  uint64_t true_total = 0;
  for (size_t step = 0; step < plan.order.size(); ++step) {
    uint32_t tp = plan.order[step];
    const card::TpEstimate& e = plan.tp_estimates[tp];
    est_total += plan.step_estimates[step];
    true_total += truth->step_cards[step];
    table.AddRow({std::to_string(step + 1),
                  PrettyPattern(parsed->patterns[tp]),
                  WithCommas(static_cast<uint64_t>(e.dsc)),
                  WithCommas(static_cast<uint64_t>(e.doc)),
                  WithCommas(static_cast<uint64_t>(e.card)),
                  WithCommas(static_cast<uint64_t>(plan.step_estimates[step])),
                  WithCommas(truth->step_cards[step])});
  }
  table.AddRow({"", "TOTAL (plan cost)", "", "", "",
                WithCommas(static_cast<uint64_t>(est_total)),
                WithCommas(true_total)});
  table.Print();
}

}  // namespace

int main() {
  bench::BenchTelemetry telemetry("table2_join_ordering");
  std::printf("=== Table 2: join ordering for example query Q on LUBM ===\n");
  bench::Dataset ds = bench::BuildLubm();
  std::printf("dataset: %s triples\n", WithCommas(ds.graph.NumTriples()).c_str());

  PrintOrdering(ds, bench::Approach::kGS,
                "(a) Join ordering using Global Statistics (O_gs)");
  PrintOrdering(ds, bench::Approach::kSS,
                "(b) Join ordering using Shapes Statistics (O_ss)");

  std::printf(
      "\nPaper's shape check: the SS estimates should track the true join\n"
      "cardinalities more closely than the GS estimates, and the SS plan's\n"
      "true total cost should not exceed the GS plan's.\n");
  return 0;
}
