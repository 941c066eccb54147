// Tests for the baselines: Characteristic Sets, SumRDF, and the heuristic
// (Jena-like / GraphDB-like) planners.
#include <gtest/gtest.h>

#include <numeric>

#include "baselines/charsets/char_sets.h"
#include "baselines/heuristic/heuristic_planners.h"
#include "baselines/sumrdf/summary.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "stats/global_stats.h"

namespace shapestats::baselines {
namespace {

constexpr const char* kData = R"(
@prefix ex: <http://ex/> .
ex:s1 a ex:Student ; ex:takes ex:c1, ex:c2 ; ex:advisor ex:p1 ; ex:name "a" .
ex:s2 a ex:Student ; ex:takes ex:c1 ; ex:advisor ex:p1 .
ex:s3 a ex:Student ; ex:takes ex:c2 ; ex:advisor ex:p2 .
ex:s4 a ex:Student ; ex:name "d" .
ex:p1 a ex:Prof ; ex:teaches ex:c1 ; ex:name "b" .
ex:p2 a ex:Prof ; ex:teaches ex:c2 .
ex:c1 a ex:Course .
ex:c2 a ex:Course .
)";

class BaselineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::ParseTurtle(kData, &graph_).ok());
    graph_.Finalize();
    gs_ = stats::GlobalStats::Compute(graph_);
  }

  sparql::EncodedBgp Encode(const std::string& body) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\nSELECT * WHERE {" +
                                body + "}");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return sparql::EncodeBgp(*q, graph_.dict());
  }

  rdf::TermId Iri(const std::string& local) {
    return graph_.dict().FindIri("http://ex/" + local).value_or(0);
  }

  rdf::Graph graph_;
  stats::GlobalStats gs_;
};

// ---------------------------------------------------------------- CharSets

TEST_F(BaselineFixture, CharSetsPartitionSubjects) {
  auto cs = CharSetIndex::Build(graph_);
  ASSERT_TRUE(cs.ok());
  // Sets: {type,takes,advisor,name} (s1), {type,takes,advisor} (s2,s3),
  // {type,name} (s4), {type,teaches,name} (p1), {type,teaches} (p2),
  // {type} (c1,c2) = 6 distinct sets.
  EXPECT_EQ(cs->NumSets(), 6u);
  EXPECT_GT(cs->MemoryBytes(), 0u);
  EXPECT_GE(cs->build_ms(), 0.0);
}

TEST_F(BaselineFixture, CharSetsExactStarCounts) {
  auto cs = CharSetIndex::Build(graph_);
  ASSERT_TRUE(cs.ok());
  // Subjects with takes AND advisor: s1, s2, s3. Expected matches of the
  // star {takes ?c, advisor ?p}: s1 contributes 2*1, s2 1*1, s3 1*1 = 4.
  double est = cs->EstimateStar({Iri("takes"), Iri("advisor")}, {false, false},
                                rdf::kInvalidTermId);
  EXPECT_DOUBLE_EQ(est, 4.0);
  auto bgp = Encode("?x ex:takes ?c . ?x ex:advisor ?p");
  auto truth = phys::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(truth.ok());
  EXPECT_DOUBLE_EQ(est, static_cast<double>(truth->num_results));
}

TEST_F(BaselineFixture, CharSetsBoundObjectDividesByDistinct) {
  auto cs = CharSetIndex::Build(graph_);
  ASSERT_TRUE(cs.ok());
  double unbound = cs->EstimateStar({Iri("advisor")}, {false}, rdf::kInvalidTermId);
  double bound = cs->EstimateStar({Iri("advisor")}, {true}, rdf::kInvalidTermId);
  EXPECT_DOUBLE_EQ(unbound, 3.0);
  EXPECT_LT(bound, unbound);
}

TEST_F(BaselineFixture, CharSetsUnknownPredicateIsZero) {
  auto cs = CharSetIndex::Build(graph_);
  ASSERT_TRUE(cs.ok());
  EXPECT_DOUBLE_EQ(
      cs->EstimateStar({Iri("takes"), 999999}, {false, false}, rdf::kInvalidTermId),
      0.0);
}

TEST_F(BaselineFixture, CharSetsSubjectSubjectJoinIsCorrelationAware) {
  auto cs = CharSetIndex::Build(graph_);
  ASSERT_TRUE(cs.ok());
  auto bgp = Encode("?x ex:takes ?c . ?x ex:name ?n");
  auto est = cs->EstimateAll(bgp);
  double join = cs->EstimateJoin(bgp.patterns[0], est[0], bgp.patterns[1], est[1]);
  // Only s1 has both takes and name: 2 takes-triples x 1 name = 2.
  EXPECT_DOUBLE_EQ(join, 2.0);
  // The independence formula would have given 4*3/max(3,4) = 3.
  double indep =
      card::JoinEstimateEq123(bgp.patterns[0], est[0], bgp.patterns[1], est[1]);
  EXPECT_GT(indep, join);
}

TEST_F(BaselineFixture, CharSetsResultEstimateStarQuery) {
  auto cs = CharSetIndex::Build(graph_);
  ASSERT_TRUE(cs.ok());
  auto bgp = Encode("?x a ex:Student . ?x ex:takes ?c . ?x ex:advisor ?p");
  double est = cs->EstimateResultCardinality(bgp);
  auto truth = phys::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(truth.ok());
  // Star estimates should be near-exact on stars (type is just another
  // bound-object predicate here).
  EXPECT_NEAR(est, static_cast<double>(truth->num_results), 0.5);
}

TEST_F(BaselineFixture, CharSetsPlansExecuteCorrectly) {
  auto cs = CharSetIndex::Build(graph_);
  ASSERT_TRUE(cs.ok());
  auto bgp = Encode("?x ex:advisor ?p . ?p ex:teaches ?c . ?x ex:takes ?c");
  auto plan = opt::PlanJoinOrder(bgp, *cs);
  EXPECT_EQ(plan.provider, "CS");
  auto r = phys::ExecuteBgp(graph_, bgp, plan.order);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 3u);
}

// ----------------------------------------------------------------- SumRDF

TEST_F(BaselineFixture, SumRdfBuildsBoundedSummary) {
  SumRdfOptions opts;
  opts.target_size = 4;
  auto s = SumRdfSummary::Build(graph_, opts);
  ASSERT_TRUE(s.ok());
  EXPECT_GT(s->NumBuckets(), 0u);
  EXPECT_GT(s->NumEdges(), 0u);
  EXPECT_GT(s->MemoryBytes(), 0u);
}

TEST_F(BaselineFixture, SumRdfExactWithSingletonBuckets) {
  // With a huge target size every signature group stays separate; estimates
  // of single patterns should equal the true counts.
  SumRdfOptions opts;
  opts.target_size = 100000;
  auto s = SumRdfSummary::Build(graph_, opts);
  ASSERT_TRUE(s.ok());
  auto bgp = Encode("?x ex:takes ?c");
  auto est = s->Estimate(bgp);
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(*est, 4.0);
}

TEST_F(BaselineFixture, SumRdfTypePatternExact) {
  auto s = SumRdfSummary::Build(graph_);
  ASSERT_TRUE(s.ok());
  auto bgp = Encode("?x a ex:Student");
  auto est = s->Estimate(bgp);
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(*est, 4.0);
}

TEST_F(BaselineFixture, SumRdfJoinEstimatePositive) {
  auto s = SumRdfSummary::Build(graph_);
  ASSERT_TRUE(s.ok());
  auto bgp = Encode("?x ex:advisor ?p . ?p ex:teaches ?c");
  auto est = s->Estimate(bgp);
  ASSERT_TRUE(est.has_value());
  EXPECT_GT(*est, 0.0);
  auto truth = phys::ExecuteBgp(graph_, bgp);
  ASSERT_TRUE(truth.ok());
  // Within a small factor of the truth (3).
  EXPECT_NEAR(*est, static_cast<double>(truth->num_results), 3.0);
}

TEST_F(BaselineFixture, SumRdfBoundConstantsPruneToZero) {
  auto s = SumRdfSummary::Build(graph_);
  ASSERT_TRUE(s.ok());
  auto bgp = Encode("ex:c1 ex:takes ?c");  // c1 has no outgoing takes
  auto est = s->Estimate(bgp);
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(*est, 0.0);
}

TEST_F(BaselineFixture, SumRdfBudgetExhaustionReported) {
  SumRdfOptions opts;
  opts.expansion_budget = 1;
  auto s = SumRdfSummary::Build(graph_, opts);
  ASSERT_TRUE(s.ok());
  auto bgp = Encode("?s ?p ?o . ?s2 ?p2 ?o2 . ?s3 ?p3 ?o3");
  EXPECT_FALSE(s->Estimate(bgp).has_value());
  // The provider interface still delivers a (fallback) number.
  EXPECT_GE(s->EstimateResultCardinality(bgp), 0.0);
}

TEST_F(BaselineFixture, SumRdfPlansExecuteCorrectly) {
  auto s = SumRdfSummary::Build(graph_);
  ASSERT_TRUE(s.ok());
  auto bgp = Encode("?x ex:advisor ?p . ?p ex:teaches ?c . ?x ex:takes ?c");
  auto plan = opt::PlanJoinOrder(bgp, *s);
  EXPECT_EQ(plan.provider, "SumRDF");
  auto r = phys::ExecuteBgp(graph_, bgp, plan.order);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 3u);
}

// -------------------------------------------------------------- heuristics

TEST(JenaWeightTest, WeightOrdering) {
  // Fully bound < two bound < one bound < none bound.
  int spo = JenaPatternWeight(true, true, true, false);
  int sp = JenaPatternWeight(true, true, false, false);
  int po = JenaPatternWeight(false, true, true, false);
  int type_po = JenaPatternWeight(false, true, true, true);
  int s = JenaPatternWeight(true, false, false, false);
  int none = JenaPatternWeight(false, false, false, false);
  EXPECT_LT(spo, sp);
  EXPECT_LT(sp, po);
  EXPECT_LT(po, type_po);  // type patterns are penalized
  EXPECT_LT(type_po, s);
  EXPECT_LT(s, none);
}

TEST_F(BaselineFixture, JenaPlanIsPermutationAndConnected) {
  auto bgp = Encode(
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  auto plan = PlanJenaLike(bgp, gs_.rdf_type_id);
  EXPECT_EQ(plan.provider, "Jena");
  std::vector<uint32_t> sorted = plan.order;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(sorted[i], i);
  auto r = phys::ExecuteBgp(graph_, bgp, plan.order);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 3u);
}

TEST_F(BaselineFixture, JenaPlanIsOrderSensitive) {
  // The same BGP written in two different textual orders can produce
  // different plans (ties break by input position).
  auto bgp1 = Encode("?x ex:takes ?c . ?x ex:advisor ?p . ?p ex:name ?n");
  auto bgp2 = Encode("?x ex:advisor ?p . ?x ex:takes ?c . ?p ex:name ?n");
  auto p1 = PlanJenaLike(bgp1, gs_.rdf_type_id);
  auto p2 = PlanJenaLike(bgp2, gs_.rdf_type_id);
  // Both start with their textual first pattern (equal weights).
  EXPECT_EQ(p1.order[0], 0u);
  EXPECT_EQ(p2.order[0], 0u);
}

TEST_F(BaselineFixture, GraphDbProviderMinJoinModel) {
  GraphDbLikeProvider gdb(gs_, graph_.dict());
  EXPECT_EQ(gdb.name(), "GDB");
  auto bgp = Encode("?x ex:takes ?c . ?x ex:advisor ?p");
  auto est = gdb.EstimateAll(bgp);
  double join = gdb.EstimateJoin(bgp.patterns[0], est[0], bgp.patterns[1], est[1]);
  EXPECT_DOUBLE_EQ(join, std::min(est[0].card, est[1].card));
}

TEST_F(BaselineFixture, GraphDbPlansExecuteCorrectly) {
  GraphDbLikeProvider gdb(gs_, graph_.dict());
  auto bgp = Encode("?x ex:advisor ?p . ?p ex:teaches ?c . ?x ex:takes ?c");
  auto plan = opt::PlanJoinOrder(bgp, gdb);
  auto r = phys::ExecuteBgp(graph_, bgp, plan.order);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_results, 3u);
}

TEST_F(BaselineFixture, GraphDbResultEstimateIsMinCard) {
  GraphDbLikeProvider gdb(gs_, graph_.dict());
  auto bgp = Encode("?x a ex:Prof . ?x ex:name ?n");
  auto est = gdb.EstimateAll(bgp);
  double expect = std::min(est[0].card, est[1].card);
  EXPECT_DOUBLE_EQ(gdb.EstimateResultCardinality(bgp), expect);
}

}  // namespace
}  // namespace shapestats::baselines
