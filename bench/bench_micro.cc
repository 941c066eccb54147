// Microbenchmarks (google-benchmark): substrate throughput — pattern
// scans, estimator calls, join ordering, annotation, parsing. These are
// not paper figures; they document the cost of each component.
#include <benchmark/benchmark.h>

#include "card/estimator.h"
#include "datagen/lubm.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "shacl/generator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "stats/global_stats.h"
#include "workload/queries.h"

using namespace shapestats;

namespace {

// One shared small-LUBM context for all microbenchmarks.
struct Context {
  rdf::Graph graph;
  stats::GlobalStats gs;
  shacl::ShapesGraph shapes;
  sparql::ParsedQuery query;
  sparql::EncodedBgp bgp;

  Context() {
    datagen::LubmOptions opts;
    opts.universities = 2;
    graph = datagen::GenerateLubm(opts);
    gs = stats::GlobalStats::Compute(graph);
    shapes = std::move(shacl::GenerateShapes(graph)).value();
    (void)stats::AnnotateShapes(graph, &shapes);
    query = std::move(sparql::ParseQuery(workload::LubmExampleQuery())).value();
    bgp = sparql::EncodeBgp(query, graph.dict());
  }
};

Context& Ctx() {
  static Context ctx;
  return ctx;
}

void BM_PatternScanByPredicate(benchmark::State& state) {
  Context& ctx = Ctx();
  auto advisor = ctx.graph.dict().FindIri(std::string(datagen::kUbNs) + "advisor");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.graph.CountMatches(std::nullopt, *advisor, std::nullopt));
  }
}
BENCHMARK(BM_PatternScanByPredicate);

void BM_PatternScanBySubject(benchmark::State& state) {
  Context& ctx = Ctx();
  rdf::TermId subject = ctx.graph.triples()[ctx.graph.NumTriples() / 2].s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.graph.Match(subject, std::nullopt, std::nullopt).size());
  }
}
BENCHMARK(BM_PatternScanBySubject);

void BM_SparqlParse(benchmark::State& state) {
  const std::string& text = workload::LubmExampleQuery();
  for (auto _ : state) {
    auto q = sparql::ParseQuery(text);
    benchmark::DoNotOptimize(q.ok());
  }
}
BENCHMARK(BM_SparqlParse);

void BM_EstimateAllGlobal(benchmark::State& state) {
  Context& ctx = Ctx();
  card::CardinalityEstimator est(ctx.gs, nullptr, ctx.graph.dict(),
                                 card::StatsMode::kGlobal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateAll(ctx.bgp));
  }
}
BENCHMARK(BM_EstimateAllGlobal);

void BM_EstimateAllShape(benchmark::State& state) {
  Context& ctx = Ctx();
  card::CardinalityEstimator est(ctx.gs, &ctx.shapes, ctx.graph.dict(),
                                 card::StatsMode::kShape);
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateAll(ctx.bgp));
  }
}
BENCHMARK(BM_EstimateAllShape);

void BM_PlanJoinOrder(benchmark::State& state) {
  Context& ctx = Ctx();
  card::CardinalityEstimator est(ctx.gs, &ctx.shapes, ctx.graph.dict(),
                                 card::StatsMode::kShape);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::PlanJoinOrder(ctx.bgp, est));
  }
}
BENCHMARK(BM_PlanJoinOrder);

void BM_ExecuteExampleQuery(benchmark::State& state) {
  Context& ctx = Ctx();
  card::CardinalityEstimator est(ctx.gs, &ctx.shapes, ctx.graph.dict(),
                                 card::StatsMode::kShape);
  opt::Plan plan = opt::PlanJoinOrder(ctx.bgp, est);
  for (auto _ : state) {
    auto r = phys::ExecuteBgp(ctx.graph, ctx.bgp, plan.order);
    benchmark::DoNotOptimize(r->num_results);
  }
}
BENCHMARK(BM_ExecuteExampleQuery);

void BM_GlobalStatsCompute(benchmark::State& state) {
  Context& ctx = Ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::GlobalStats::Compute(ctx.graph));
  }
}
BENCHMARK(BM_GlobalStatsCompute);

void BM_AnnotateShapes(benchmark::State& state) {
  Context& ctx = Ctx();
  for (auto _ : state) {
    shacl::ShapesGraph shapes = ctx.shapes;
    benchmark::DoNotOptimize(stats::AnnotateShapes(ctx.graph, &shapes).ok());
  }
}
BENCHMARK(BM_AnnotateShapes);

}  // namespace

BENCHMARK_MAIN();
