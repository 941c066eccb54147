// Quickstart: the full shapestats pipeline on a small LUBM-style dataset.
//
//   1. Generate (or load) an RDF graph.
//   2. Generate SHACL shapes for it (SHACLGEN equivalent) and validate.
//   3. Annotate the shapes with statistics (the paper's Shapes Annotator).
//   4. Compute global (VoID-extended) statistics.
//   5. Parse a SPARQL query, plan it with global stats (GS) and shape
//      stats (SS), and execute both plans.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "card/estimator.h"
#include "datagen/lubm.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "shacl/generator.h"
#include "shacl/shapes_io.h"
#include "shacl/validator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "stats/global_stats.h"
#include "util/string_util.h"
#include "workload/queries.h"

using namespace shapestats;

int main() {
  // 1. Data.
  datagen::LubmOptions data_opts;
  data_opts.universities = 2;
  rdf::Graph graph = datagen::GenerateLubm(data_opts);
  std::printf("dataset: %s triples, %s terms\n",
              WithCommas(graph.NumTriples()).c_str(),
              WithCommas(graph.dict().size()).c_str());

  // 2. Shapes.
  auto shapes = shacl::GenerateShapes(graph);
  if (!shapes.ok()) {
    std::fprintf(stderr, "shape generation failed: %s\n",
                 shapes.status().ToString().c_str());
    return 1;
  }
  std::printf("shapes: %zu node shapes, %zu property shapes\n",
              shapes->NumNodeShapes(), shapes->NumPropertyShapes());
  auto report = shacl::Validate(graph, *shapes);
  std::printf("validation: %s\n", report->conforms ? "conforms" : "violations");

  // 3. Annotate with statistics.
  auto annotation = stats::AnnotateShapes(graph, &shapes.value());
  std::printf("annotator: %llu property shapes in %.1f ms\n",
              static_cast<unsigned long long>(annotation->property_shapes_annotated),
              annotation->elapsed_ms);

  // The extended shapes serialize to Turtle, as in Figure 3 of the paper.
  std::string turtle = shacl::WriteShapesTurtle(*shapes);
  std::printf("extended shapes graph: %zu KB of Turtle\n", turtle.size() / 1024);

  // 4. Global statistics.
  stats::GlobalStats gs = stats::GlobalStats::Compute(graph);
  std::printf("global stats: %zu predicates, %s classes\n",
              gs.by_predicate.size(),
              WithCommas(gs.num_distinct_classes).c_str());

  // 5. Plan and execute the paper's example query Q.
  auto parsed = sparql::ParseQuery(workload::LubmExampleQuery());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  sparql::EncodedBgp bgp = sparql::EncodeBgp(*parsed, graph.dict());

  card::CardinalityEstimator gs_est(gs, nullptr, graph.dict(),
                                    card::StatsMode::kGlobal);
  card::CardinalityEstimator ss_est(gs, &shapes.value(), graph.dict(),
                                    card::StatsMode::kShape);

  for (const card::PlannerStatsProvider* provider :
       {static_cast<const card::PlannerStatsProvider*>(&gs_est),
        static_cast<const card::PlannerStatsProvider*>(&ss_est)}) {
    opt::Plan plan = opt::PlanJoinOrder(bgp, *provider);
    auto result = phys::ExecuteBgp(graph, bgp, plan.order);
    if (!result.ok()) {
      std::fprintf(stderr, "execution failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%s plan: est cost %s, true cost %s, %s results in %.1f ms, order [",
        plan.provider.c_str(), CompactDouble(plan.total_cost).c_str(),
        WithCommas(result->TrueCost()).c_str(),
        WithCommas(result->num_results).c_str(), result->elapsed_ms);
    for (size_t i = 0; i < plan.order.size(); ++i) {
      std::printf("%s%u", i ? " " : "", plan.order[i] + 1);
    }
    std::printf("]\n");
  }
  return 0;
}
