// Cross-module integration tests: the full pipeline (generate -> shapes ->
// annotate -> serialize -> reload -> estimate -> plan -> execute) and
// consistency invariants across all planners on real workloads.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/charsets/char_sets.h"
#include "baselines/heuristic/heuristic_planners.h"
#include "baselines/sumrdf/summary.h"
#include "card/estimator.h"
#include "datagen/lubm.h"
#include "datagen/watdiv.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "shacl/generator.h"
#include "shacl/shapes_io.h"
#include "shacl/validator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "stats/global_stats.h"
#include "workload/queries.h"

namespace shapestats {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::LubmOptions opts;
    opts.universities = 2;
    graph_ = new rdf::Graph(datagen::GenerateLubm(opts));
    gs_ = new stats::GlobalStats(stats::GlobalStats::Compute(*graph_));
    auto shapes = shacl::GenerateShapes(*graph_);
    ASSERT_TRUE(shapes.ok());
    shapes_ = new shacl::ShapesGraph(std::move(shapes).value());
    ASSERT_TRUE(stats::AnnotateShapes(*graph_, shapes_).ok());
  }
  static void TearDownTestSuite() {
    delete shapes_;
    delete gs_;
    delete graph_;
    graph_ = nullptr;
  }

  static sparql::EncodedBgp Encode(const std::string& text) {
    auto q = sparql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return sparql::EncodeBgp(*q, graph_->dict());
  }

  static rdf::Graph* graph_;
  static stats::GlobalStats* gs_;
  static shacl::ShapesGraph* shapes_;
};
rdf::Graph* PipelineFixture::graph_ = nullptr;
stats::GlobalStats* PipelineFixture::gs_ = nullptr;
shacl::ShapesGraph* PipelineFixture::shapes_ = nullptr;

TEST_F(PipelineFixture, GeneratedShapesValidateGeneratedData) {
  auto report = shacl::Validate(*graph_, *shapes_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->conforms) << report->ToString();
  EXPECT_GT(report->focus_nodes_checked, 1000u);
}

TEST_F(PipelineFixture, AnnotatedShapesSurviveTurtleRoundTrip) {
  std::string ttl = shacl::WriteShapesTurtle(*shapes_);
  auto reloaded = shacl::ReadShapesTurtle(ttl);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded->NumNodeShapes(), shapes_->NumNodeShapes());
  ASSERT_EQ(reloaded->NumPropertyShapes(), shapes_->NumPropertyShapes());
  EXPECT_TRUE(reloaded->FullyAnnotated());
  // Every statistic must round-trip bit-exactly.
  for (const shacl::NodeShape& ns : shapes_->shapes()) {
    const shacl::NodeShape* back = reloaded->FindByClass(ns.target_class);
    ASSERT_NE(back, nullptr) << ns.target_class;
    EXPECT_EQ(back->count, ns.count);
    for (const shacl::PropertyShape& ps : ns.properties) {
      const shacl::PropertyShape* bps = back->FindProperty(ps.path);
      ASSERT_NE(bps, nullptr) << ps.path;
      EXPECT_EQ(bps->count, ps.count);
      EXPECT_EQ(bps->min_count, ps.min_count);
      EXPECT_EQ(bps->max_count, ps.max_count);
      EXPECT_EQ(bps->distinct_count, ps.distinct_count);
    }
  }
}

TEST_F(PipelineFixture, ReloadedShapesProduceIdenticalPlans) {
  std::string ttl = shacl::WriteShapesTurtle(*shapes_);
  auto reloaded = shacl::ReadShapesTurtle(ttl);
  ASSERT_TRUE(reloaded.ok());
  card::CardinalityEstimator original(*gs_, shapes_, graph_->dict(),
                                      card::StatsMode::kShape);
  card::CardinalityEstimator restored(*gs_, &reloaded.value(), graph_->dict(),
                                      card::StatsMode::kShape);
  for (const auto& q : workload::LubmQueries()) {
    auto bgp = Encode(q.text);
    auto p1 = opt::PlanJoinOrder(bgp, original);
    auto p2 = opt::PlanJoinOrder(bgp, restored);
    EXPECT_EQ(p1.order, p2.order) << q.label;
    EXPECT_DOUBLE_EQ(p1.total_cost, p2.total_cost) << q.label;
  }
}

TEST_F(PipelineFixture, AllPlannersAgreeOnResultCardinality) {
  auto cs = baselines::CharSetIndex::Build(*graph_);
  ASSERT_TRUE(cs.ok());
  auto sumrdf = baselines::SumRdfSummary::Build(*graph_);
  ASSERT_TRUE(sumrdf.ok());
  card::CardinalityEstimator gs_est(*gs_, nullptr, graph_->dict(),
                                    card::StatsMode::kGlobal);
  card::CardinalityEstimator ss_est(*gs_, shapes_, graph_->dict(),
                                    card::StatsMode::kShape);
  baselines::GraphDbLikeProvider gdb(*gs_, graph_->dict());

  for (const auto& q : workload::LubmQueries()) {
    auto bgp = Encode(q.text);
    phys::ExecOptions opts;
    opts.max_intermediate_rows = 50'000'000;
    std::vector<uint64_t> counts;
    for (const card::PlannerStatsProvider* p :
         {static_cast<const card::PlannerStatsProvider*>(&gs_est),
          static_cast<const card::PlannerStatsProvider*>(&ss_est),
          static_cast<const card::PlannerStatsProvider*>(&gdb),
          static_cast<const card::PlannerStatsProvider*>(&cs.value()),
          static_cast<const card::PlannerStatsProvider*>(&sumrdf.value())}) {
      auto plan = opt::PlanJoinOrder(bgp, *p);
      auto r = phys::ExecuteBgp(*graph_, bgp, plan.order, opts);
      ASSERT_TRUE(r.ok()) << q.label;
      ASSERT_FALSE(r->timed_out) << q.label << " with " << p->name();
      counts.push_back(r->num_results);
    }
    auto jena = baselines::PlanJenaLike(bgp, gs_->rdf_type_id);
    auto r = phys::ExecuteBgp(*graph_, bgp, jena.order, opts);
    ASSERT_TRUE(r.ok());
    counts.push_back(r->num_results);
    for (uint64_t c : counts) EXPECT_EQ(c, counts[0]) << q.label;
  }
}

TEST_F(PipelineFixture, SsNeverWorseThanGsOnTypeAnchoredStars) {
  // The paper's core claim, on its home turf: star queries with a type
  // pattern. SS plans must not have a higher true cost than GS plans.
  card::CardinalityEstimator gs_est(*gs_, nullptr, graph_->dict(),
                                    card::StatsMode::kGlobal);
  card::CardinalityEstimator ss_est(*gs_, shapes_, graph_->dict(),
                                    card::StatsMode::kShape);
  for (const auto& q : workload::LubmQueries()) {
    if (q.family != 'S') continue;
    auto bgp = Encode(q.text);
    auto gp = opt::PlanJoinOrder(bgp, gs_est);
    auto sp = opt::PlanJoinOrder(bgp, ss_est);
    auto gr = phys::ExecuteBgp(*graph_, bgp, gp.order);
    auto sr = phys::ExecuteBgp(*graph_, bgp, sp.order);
    EXPECT_LE(sr->TrueCost(), gr->TrueCost() * 1.05 + 10) << q.label;
  }
}

TEST_F(PipelineFixture, ShapeEstimatesAreMoreAccurateOnAnchoredPatterns) {
  // Median q-error over the workload: SS must beat or tie GS.
  card::CardinalityEstimator gs_est(*gs_, nullptr, graph_->dict(),
                                    card::StatsMode::kGlobal);
  card::CardinalityEstimator ss_est(*gs_, shapes_, graph_->dict(),
                                    card::StatsMode::kShape);
  auto qerr = [&](double est, uint64_t truth) {
    double e = std::max(1.0, est);
    double c = std::max(1.0, static_cast<double>(truth));
    return std::max(e / c, c / e);
  };
  std::vector<double> gs_errors, ss_errors;
  for (const auto& q : workload::LubmQueries()) {
    auto bgp = Encode(q.text);
    phys::ExecOptions opts;
    opts.max_intermediate_rows = 50'000'000;
    auto plan = opt::PlanJoinOrder(bgp, gs_est);
    auto r = phys::ExecuteBgp(*graph_, bgp, plan.order, opts);
    gs_errors.push_back(qerr(gs_est.EstimateResultCardinality(bgp), r->num_results));
    ss_errors.push_back(qerr(ss_est.EstimateResultCardinality(bgp), r->num_results));
  }
  std::sort(gs_errors.begin(), gs_errors.end());
  std::sort(ss_errors.begin(), ss_errors.end());
  EXPECT_LE(ss_errors[ss_errors.size() / 2], gs_errors[gs_errors.size() / 2] + 1e-9);
}

TEST_F(PipelineFixture, VoidOutputIsValidTurtle) {
  std::string ttl = stats::WriteVoidTurtle(*gs_, graph_->dict());
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(ttl, &g).ok());
  g.Finalize();
  EXPECT_GT(g.NumTriples(), gs_->by_predicate.size() * 3);
}

TEST_F(PipelineFixture, NtriplesRoundTripPreservesWholeDataset) {
  // Serialize the whole generated dataset and parse it back.
  std::string nt = rdf::WriteNTriples(*graph_);
  rdf::Graph back;
  ASSERT_TRUE(rdf::ParseNTriples(nt, &back).ok());
  back.Finalize();
  EXPECT_EQ(back.NumTriples(), graph_->NumTriples());
  // Statistics computed on the reloaded graph must be identical.
  stats::GlobalStats gs2 = stats::GlobalStats::Compute(back);
  EXPECT_EQ(gs2.num_triples, gs_->num_triples);
  EXPECT_EQ(gs2.num_distinct_subjects, gs_->num_distinct_subjects);
  EXPECT_EQ(gs2.num_distinct_objects, gs_->num_distinct_objects);
  EXPECT_EQ(gs2.num_distinct_classes, gs_->num_distinct_classes);
}

TEST(WatDivPipelineTest, EndToEnd) {
  datagen::WatDivOptions opts;
  opts.products = 500;
  rdf::Graph g = datagen::GenerateWatDiv(opts);
  auto shapes = shacl::GenerateShapes(g);
  ASSERT_TRUE(shapes.ok());
  ASSERT_TRUE(stats::AnnotateShapes(g, &shapes.value()).ok());
  EXPECT_TRUE(shapes->FullyAnnotated());
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  card::CardinalityEstimator ss(gs, &shapes.value(), g.dict(),
                                card::StatsMode::kShape);
  for (const auto& q : workload::WatDivQueries()) {
    auto parsed = sparql::ParseQuery(q.text);
    ASSERT_TRUE(parsed.ok()) << q.label;
    auto bgp = sparql::EncodeBgp(*parsed, g.dict());
    auto plan = opt::PlanJoinOrder(bgp, ss);
    phys::ExecOptions eopts;
    eopts.max_intermediate_rows = 50'000'000;
    auto r = phys::ExecuteBgp(g, bgp, plan.order, eopts);
    ASSERT_TRUE(r.ok()) << q.label;
    EXPECT_FALSE(r->timed_out) << q.label;
  }
}

}  // namespace
}  // namespace shapestats
