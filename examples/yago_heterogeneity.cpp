// Heterogeneous-data walkthrough: the YAGO-4 scenario from the paper.
// YAGO ships without SHACL shapes, so the pipeline is: generate shapes
// from the data (SHACLGEN equivalent), annotate them, then show how
// class-local statistics diverge from global statistics on a predicate
// shared by many classes — the correlation that makes shape statistics
// pay off (and that global statistics cannot represent).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "card/estimator.h"
#include "datagen/yago.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "shacl/generator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "stats/global_stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "workload/queries.h"

using namespace shapestats;

int main() {
  datagen::YagoOptions opts;
  opts.num_entities = 30000;
  rdf::Graph graph = datagen::GenerateYago(opts);
  stats::GlobalStats gs = stats::GlobalStats::Compute(graph);
  std::printf("YAGO scale model: %s triples, %s classes, %zu predicates\n",
              WithCommas(graph.NumTriples()).c_str(),
              WithCommas(gs.num_distinct_classes).c_str(),
              gs.by_predicate.size());

  auto shapes = shacl::GenerateShapes(graph);
  if (!shapes.ok()) {
    std::fprintf(stderr, "%s\n", shapes.status().ToString().c_str());
    return 1;
  }
  auto report = stats::AnnotateShapes(graph, &shapes.value());
  std::printf("generated + annotated %zu node shapes / %zu property shapes "
              "in %.0f ms\n",
              shapes->NumNodeShapes(), shapes->NumPropertyShapes(),
              report->elapsed_ms);

  // The label predicate exists on every class; birthPlace only on people.
  // Compare the global statistics of schema:birthPlace with its per-class
  // property shapes.
  const std::string birth_place = std::string(datagen::kSchemaNs) + "birthPlace";
  auto pred_id = graph.dict().FindIri(birth_place);
  const stats::PredicateStats* global = pred_id ? gs.Predicate(*pred_id) : nullptr;
  if (global) {
    std::printf("\nglobal stats of schema:birthPlace: count %s, DSC %s, DOC %s\n",
                WithCommas(global->count).c_str(), WithCommas(global->dsc).c_str(),
                WithCommas(global->doc).c_str());
  }
  TablePrinter table({"node shape (class)", "sh:count", "sh:distinctCount",
                      "sh:minCount", "sh:maxCount"});
  for (const shacl::NodeShape* ns : shapes->CandidatesForPath(birth_place)) {
    const shacl::PropertyShape* ps = ns->FindProperty(birth_place);
    table.AddRow({ns->target_class.substr(ns->target_class.find_last_of('/') + 1),
                  WithCommas(ps->count.value_or(0)),
                  WithCommas(ps->distinct_count.value_or(0)),
                  std::to_string(ps->min_count.value_or(0)),
                  std::to_string(ps->max_count.value_or(0))});
  }
  table.Print();

  // Show the effect on one query: Actors born where their movie's director
  // was born (YAGO C1).
  std::string query = workload::YagoQueries()[0].text;
  auto parsed = sparql::ParseQuery(query);
  auto bgp = sparql::EncodeBgp(*parsed, graph.dict());
  card::CardinalityEstimator gs_est(gs, nullptr, graph.dict(),
                                    card::StatsMode::kGlobal);
  card::CardinalityEstimator ss_est(gs, &shapes.value(), graph.dict(),
                                    card::StatsMode::kShape);
  std::printf("\nYAGO query C1:\n%s\n", query.c_str());
  for (const card::PlannerStatsProvider* p :
       {static_cast<const card::PlannerStatsProvider*>(&gs_est),
        static_cast<const card::PlannerStatsProvider*>(&ss_est)}) {
    opt::Plan plan = opt::PlanJoinOrder(bgp, *p);
    auto r = phys::ExecuteBgp(graph, bgp, plan.order);
    std::printf("%-3s est cost %-12s true cost %-12s results %s in %.1f ms\n",
                p->name().c_str(),
                WithCommas(static_cast<uint64_t>(plan.total_cost)).c_str(),
                WithCommas(r->TrueCost()).c_str(),
                WithCommas(r->num_results).c_str(), r->elapsed_ms);
  }
  return 0;
}
