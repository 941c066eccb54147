// Tests for the LUBM / WatDiv / YAGO scale-model generators and the
// workload query sets: schema coverage, determinism, and that every
// benchmark query parses and matches data.
#include <gtest/gtest.h>

#include "card/estimator.h"
#include "datagen/lubm.h"
#include "datagen/watdiv.h"
#include "datagen/yago.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "rdf/vocab.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"
#include "stats/global_stats.h"
#include "workload/queries.h"

namespace shapestats::datagen {
namespace {

// Executes a query with a GS-planned join order (textual order can blow up
// intermediate results on purpose-built stress queries).
Result<phys::ExecResult> RunPlanned(const rdf::Graph& g,
                                    const stats::GlobalStats& gs,
                                    const std::string& text) {
  auto parsed = sparql::ParseQuery(text);
  RETURN_NOT_OK(parsed.status());
  auto bgp = sparql::EncodeBgp(*parsed, g.dict());
  card::CardinalityEstimator est(gs, nullptr, g.dict(),
                                 card::StatsMode::kGlobal);
  opt::Plan plan = opt::PlanJoinOrder(bgp, est);
  phys::ExecOptions opts;
  opts.max_intermediate_rows = 50'000'000;
  return phys::ExecuteBgp(g, bgp, plan.order, opts);
}

class LubmFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LubmOptions opts;
    opts.universities = 2;
    graph_ = new rdf::Graph(GenerateLubm(opts));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }
  static rdf::Graph* graph_;
};
rdf::Graph* LubmFixture::graph_ = nullptr;

TEST_F(LubmFixture, ReasonableSize) {
  EXPECT_GT(graph_->NumTriples(), 30000u);
  EXPECT_LT(graph_->NumTriples(), 500000u);
}

TEST_F(LubmFixture, AllClassesPresent) {
  stats::GlobalStats gs = stats::GlobalStats::Compute(*graph_);
  for (const char* cls :
       {"University", "Department", "FullProfessor", "AssociateProfessor",
        "AssistantProfessor", "Lecturer", "Course", "GraduateCourse",
        "UndergraduateStudent", "GraduateStudent", "TeachingAssistant",
        "Publication"}) {
    auto id = graph_->dict().FindIri(std::string(kUbNs) + cls);
    ASSERT_TRUE(id.has_value()) << cls;
    EXPECT_GT(gs.ClassCount(*id), 0u) << cls;
  }
}

TEST_F(LubmFixture, SchemaCorrelationsHold) {
  // advisor triples always start at students and end at professors —
  // the correlation global statistics cannot see but shape statistics can.
  auto type = graph_->dict().FindIri(rdf::vocab::kRdfType);
  auto advisor = graph_->dict().FindIri(std::string(kUbNs) + "advisor");
  auto grad = graph_->dict().FindIri(std::string(kUbNs) + "GraduateStudent");
  auto ug = graph_->dict().FindIri(std::string(kUbNs) + "UndergraduateStudent");
  ASSERT_TRUE(type && advisor && grad && ug);
  for (const rdf::Triple& t : graph_->PredicateBySubject(*advisor)) {
    bool is_student = graph_->Contains(t.s, *type, *grad) ||
                      graph_->Contains(t.s, *type, *ug);
    ASSERT_TRUE(is_student);
  }
}

TEST_F(LubmFixture, EveryGraduateStudentHasAdvisor) {
  auto type = graph_->dict().FindIri(rdf::vocab::kRdfType);
  auto advisor = graph_->dict().FindIri(std::string(kUbNs) + "advisor");
  auto grad = graph_->dict().FindIri(std::string(kUbNs) + "GraduateStudent");
  for (const rdf::Triple& t : graph_->Match(std::nullopt, *type, *grad)) {
    ASSERT_GT(graph_->CountMatches(t.s, *advisor, std::nullopt), 0u);
  }
}

TEST_F(LubmFixture, DeterministicForSeed) {
  LubmOptions opts;
  opts.universities = 1;
  opts.seed = 42;
  rdf::Graph a = GenerateLubm(opts);
  rdf::Graph b = GenerateLubm(opts);
  EXPECT_EQ(a.NumTriples(), b.NumTriples());
  EXPECT_EQ(a.dict().size(), b.dict().size());
}

TEST_F(LubmFixture, SeedChangesData) {
  LubmOptions a, b;
  a.universities = b.universities = 1;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(GenerateLubm(a).NumTriples(), GenerateLubm(b).NumTriples());
}

TEST_F(LubmFixture, EveryLubmQueryParsesEncodesAndMatches) {
  stats::GlobalStats gs = stats::GlobalStats::Compute(*graph_);
  for (const auto& q : workload::LubmQueries()) {
    auto parsed = sparql::ParseQuery(q.text);
    ASSERT_TRUE(parsed.ok()) << q.label << ": " << parsed.status().ToString();
    auto bgp = sparql::EncodeBgp(*parsed, graph_->dict());
    for (const auto& tp : bgp.patterns) {
      EXPECT_FALSE(tp.HasMissingConstant())
          << q.label << " references a term absent from the data";
    }
    auto r = RunPlanned(*graph_, gs, q.text);
    ASSERT_TRUE(r.ok()) << q.label;
    EXPECT_FALSE(r->timed_out) << q.label;
    EXPECT_GT(r->num_results, 0u) << q.label << " is empty on the scale model";
  }
}

TEST_F(LubmFixture, QueryFamiliesMatchDeclaredShapes) {
  for (const auto& q : workload::LubmQueries()) {
    if (q.family != 'S' && q.family != 'F') continue;
    auto parsed = sparql::ParseQuery(q.text);
    ASSERT_TRUE(parsed.ok());
    auto bgp = sparql::EncodeBgp(*parsed, graph_->dict());
    auto shape = sparql::ClassifyShape(bgp);
    if (q.family == 'S') {
      EXPECT_EQ(shape, sparql::QueryShape::kStar) << q.label;
    } else {
      EXPECT_EQ(shape, sparql::QueryShape::kSnowflake) << q.label;
    }
  }
}

TEST(WatDivTest, SizeAndClasses) {
  WatDivOptions opts;
  opts.products = 800;
  rdf::Graph g = GenerateWatDiv(opts);
  EXPECT_GT(g.NumTriples(), 10000u);
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  for (const char* cls : {"Product", "User", "Retailer", "Review", "Offer",
                          "City", "Country", "Genre"}) {
    auto id = g.dict().FindIri(std::string(kWsdbmNs) + cls);
    ASSERT_TRUE(id.has_value()) << cls;
    EXPECT_GT(gs.ClassCount(*id), 0u) << cls;
  }
}

TEST(WatDivTest, PopularityIsSkewed) {
  WatDivOptions opts;
  opts.products = 800;
  rdf::Graph g = GenerateWatDiv(opts);
  auto review_for = g.dict().FindIri(std::string(kRevNs) + "reviewFor");
  ASSERT_TRUE(review_for.has_value());
  // Zipf means the most reviewed product collects far more than the mean.
  auto run = g.PredicateByObject(*review_for);
  uint64_t max_run = 0, count = 0, prev = 0, cur = 0;
  for (const rdf::Triple& t : run) {
    if (t.o != prev) {
      max_run = std::max(max_run, cur);
      cur = 0;
      prev = t.o;
      ++count;
    }
    ++cur;
  }
  max_run = std::max(max_run, cur);
  ASSERT_GT(count, 0u);
  double mean = static_cast<double>(run.size()) / count;
  EXPECT_GT(static_cast<double>(max_run), mean * 5);
}

TEST(WatDivTest, EveryWatDivQueryMatches) {
  WatDivOptions opts;
  opts.products = 800;
  rdf::Graph g = GenerateWatDiv(opts);
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  for (const auto& q : workload::WatDivQueries()) {
    auto parsed = sparql::ParseQuery(q.text);
    ASSERT_TRUE(parsed.ok()) << q.label << ": " << parsed.status().ToString();
    auto bgp = sparql::EncodeBgp(*parsed, g.dict());
    for (const auto& tp : bgp.patterns) {
      EXPECT_FALSE(tp.HasMissingConstant()) << q.label;
    }
    auto r = RunPlanned(g, gs, q.text);
    ASSERT_TRUE(r.ok()) << q.label;
    EXPECT_GT(r->num_results, 0u) << q.label;
  }
}

TEST(YagoTest, HeterogeneityProfile) {
  YagoOptions opts;
  opts.num_entities = 8000;
  opts.num_classes = 80;
  rdf::Graph g = GenerateYago(opts);
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  // Anchor classes + a large random tail of classes must be present.
  EXPECT_GT(gs.num_distinct_classes, 40u);
  auto person = g.dict().FindIri(std::string(kSchemaNs) + "Person");
  ASSERT_TRUE(person.has_value());
  EXPECT_GT(gs.ClassCount(*person), 1000u);
}

TEST(YagoTest, MultitypedActors) {
  YagoOptions opts;
  opts.num_entities = 5000;
  rdf::Graph g = GenerateYago(opts);
  auto type = g.dict().FindIri(rdf::vocab::kRdfType);
  auto actor = g.dict().FindIri(std::string(kSchemaNs) + "Actor");
  auto person = g.dict().FindIri(std::string(kSchemaNs) + "Person");
  ASSERT_TRUE(type && actor && person);
  for (const rdf::Triple& t : g.Match(std::nullopt, *type, *actor)) {
    ASSERT_TRUE(g.Contains(t.s, *type, *person)) << "actors must be persons";
  }
}

TEST(YagoTest, EveryYagoQueryMatches) {
  YagoOptions opts;
  opts.num_entities = 12000;
  rdf::Graph g = GenerateYago(opts);
  stats::GlobalStats gs = stats::GlobalStats::Compute(g);
  for (const auto& q : workload::YagoQueries()) {
    auto parsed = sparql::ParseQuery(q.text);
    ASSERT_TRUE(parsed.ok()) << q.label << ": " << parsed.status().ToString();
    auto bgp = sparql::EncodeBgp(*parsed, g.dict());
    for (const auto& tp : bgp.patterns) {
      EXPECT_FALSE(tp.HasMissingConstant()) << q.label;
    }
    auto r = RunPlanned(g, gs, q.text);
    ASSERT_TRUE(r.ok()) << q.label;
    EXPECT_GT(r->num_results, 0u) << q.label;
  }
}

TEST(WorkloadTest, QueryCountsMatchThePaper) {
  EXPECT_EQ(workload::LubmQueries().size(), 26u);    // Fig. 4c has 26 points
  EXPECT_EQ(workload::WatDivQueries().size(), 15u);  // 3 C + 5 F + 7 S
  EXPECT_EQ(workload::YagoQueries().size(), 13u);    // "13 handcrafted"
}

TEST(WorkloadTest, ExampleQueryHasNinePatterns) {
  auto parsed = sparql::ParseQuery(workload::LubmExampleQuery());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->patterns.size(), 9u);  // Table 2 rows tp1..tp9
}

}  // namespace
}  // namespace shapestats::datagen
