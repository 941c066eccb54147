// Tests for src/phys: planner operator selection, the phys.* verifier rule
// catalog, the physical executor's byte-identical-results contract against
// the depth-first INLJ executor, and end-to-end forced-operator digest
// equality over the LUBM workload across thread-pool sizes. The workload
// sweep runs under the TSan CI job, so it doubles as data-race coverage
// for the materializing operators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/plan_verify.h"
#include "card/estimator.h"
#include "datagen/lubm.h"
#include "datagen/yago.h"
#include "engine/query_engine.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "phys/physical_plan.h"
#include "phys/planner.h"
#include "rdf/turtle.h"
#include "reference_eval.h"
#include "shacl/generator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/queries.h"

namespace shapestats {
namespace {

using phys::JoinMode;
using phys::OpKind;

constexpr JoinMode kModes[] = {JoinMode::kInlj, JoinMode::kAuto,
                               JoinMode::kMerge, JoinMode::kHash};

bool HasMergeOrHash(const phys::PhysicalPlan& pplan) {
  for (const phys::PhysicalStep& st : pplan.steps) {
    if (st.op == OpKind::kMerge || st.op == OpKind::kHash) return true;
  }
  return false;
}


// ---------------------------------------------------------------------------
// Plumbing: names, env resolution, merge-run availability.

TEST(PhysPlanTest, OperatorAndModeNames) {
  EXPECT_STREQ(phys::OpName(OpKind::kScan), "scan");
  EXPECT_STREQ(phys::OpName(OpKind::kInlj), "inlj");
  EXPECT_STREQ(phys::OpName(OpKind::kMerge), "merge");
  EXPECT_STREQ(phys::OpName(OpKind::kHash), "hash");
  EXPECT_STREQ(phys::OpName(OpKind::kProduct), "product");
  EXPECT_STREQ(phys::JoinModeName(JoinMode::kAuto), "auto");
  EXPECT_STREQ(phys::JoinModeName(JoinMode::kInlj), "inlj");
  EXPECT_STREQ(phys::JoinModeName(JoinMode::kMerge), "merge");
  EXPECT_STREQ(phys::JoinModeName(JoinMode::kHash), "hash");
}

TEST(PhysPlanTest, JoinModeFromEnvParsesValues) {
  // Single-threaded env mutation; no engine/pool is active in this test.
  ::setenv("SHAPESTATS_JOIN", "merge", 1);
  EXPECT_EQ(phys::JoinModeFromEnv(), JoinMode::kMerge);
  EXPECT_EQ(phys::ResolveJoinMode(JoinMode::kEnv), JoinMode::kMerge);
  // Explicit modes pass through untouched.
  EXPECT_EQ(phys::ResolveJoinMode(JoinMode::kHash), JoinMode::kHash);
  ::setenv("SHAPESTATS_JOIN", "hash", 1);
  EXPECT_EQ(phys::JoinModeFromEnv(), JoinMode::kHash);
  ::setenv("SHAPESTATS_JOIN", "inlj", 1);
  EXPECT_EQ(phys::JoinModeFromEnv(), JoinMode::kInlj);
  ::setenv("SHAPESTATS_JOIN", "bogus", 1);
  EXPECT_EQ(phys::JoinModeFromEnv(), JoinMode::kAuto);
  ::unsetenv("SHAPESTATS_JOIN");
  EXPECT_EQ(phys::JoinModeFromEnv(), JoinMode::kAuto);
}

sparql::EncodedPattern Pattern(bool s_var, bool p_var, bool o_var) {
  sparql::EncodedPattern tp;
  auto term = [](bool is_var) {
    sparql::EncodedTerm t;
    if (is_var) {
      t.kind = sparql::EncodedTerm::Kind::kVar;
      t.id = 0;
    } else {
      t.kind = sparql::EncodedTerm::Kind::kBound;
      t.id = 1;
    }
    return t;
  };
  tp.s = term(s_var);
  tp.p = term(p_var);
  tp.o = term(o_var);
  return tp;
}

TEST(PhysPlanTest, MergeRunAvailabilityMatrix) {
  // Subject joins: some index run is sorted by subject for every constant
  // signature (SPO, PSO, OSP leftovers).
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, true, true), 0));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, false, true), 0));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, true, false), 0));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, false, false), 0));
  // Object joins: available unless the subject is constant while the
  // predicate is a variable (no index orders by object inside an S run).
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, true, true), 2));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(true, false, true), 2));
  EXPECT_FALSE(phys::MergeRunAvailable(Pattern(false, true, true), 2));
  EXPECT_TRUE(phys::MergeRunAvailable(Pattern(false, false, true), 2));
  // Predicate joins are never merged.
  EXPECT_FALSE(phys::MergeRunAvailable(Pattern(true, true, true), 1));
  EXPECT_FALSE(phys::MergeRunAvailable(Pattern(false, true, false), 1));
}

// ---------------------------------------------------------------------------
// Planner + verifier + executor over a small handmade graph.

constexpr const char* kData = R"(
@prefix ex: <http://ex/> .
ex:s1 a ex:Student ; ex:takes ex:c1, ex:c2 ; ex:advisor ex:p1 ; ex:name "a" .
ex:s2 a ex:Student ; ex:takes ex:c1 ; ex:advisor ex:p1 .
ex:s3 a ex:Student ; ex:takes ex:c2 ; ex:advisor ex:p2 .
ex:s4 a ex:Student ; ex:takes ex:c3 ; ex:advisor ex:p2 .
ex:p1 a ex:Prof ; ex:teaches ex:c1 ; ex:name "b" .
ex:p2 a ex:Prof ; ex:teaches ex:c2, ex:c3 .
ex:c1 a ex:Course .
ex:c2 a ex:Course .
ex:c3 a ex:Course .
)";

class PhysFixture : public ::testing::Test {
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
    query_ = *q;
    return sparql::EncodeBgp(*q, graph_.dict());
  }

  opt::Plan PlanFor(const sparql::EncodedBgp& bgp) {
    card::CardinalityEstimator est(gs_, nullptr, graph_.dict(),
                                   card::StatsMode::kGlobal);
    return opt::PlanJoinOrder(bgp, est);
  }

  phys::PlannerOptions Forced(JoinMode mode) {
    phys::PlannerOptions o;
    o.mode = mode;
    return o;
  }

  rdf::Graph graph_;
  stats::GlobalStats gs_;
  sparql::ParsedQuery query_;
};

TEST_F(PhysFixture, ForcedModesAnnotateEveryJoinStep) {
  auto bgp = Encode(
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  opt::Plan plan = PlanFor(bgp);

  phys::PhysicalPlan inlj =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kInlj));
  ASSERT_EQ(inlj.steps.size(), plan.order.size());
  EXPECT_EQ(inlj.steps[0].op, OpKind::kScan);
  EXPECT_FALSE(HasMergeOrHash(inlj));
  for (size_t k = 1; k < inlj.steps.size(); ++k) {
    EXPECT_EQ(inlj.steps[k].op, OpKind::kInlj) << "step " << k;
    EXPECT_EQ(inlj.steps[k].rationale, "forced by join mode inlj");
  }

  phys::PhysicalPlan merge =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kMerge));
  size_t merges = 0;
  for (size_t k = 1; k < merge.steps.size(); ++k) {
    const phys::PhysicalStep& st = merge.steps[k];
    if (st.op == OpKind::kMerge) {
      ++merges;
      EXPECT_TRUE(st.merge_ok);
      EXPECT_GE(st.join_pos, 0);
      EXPECT_NE(st.join_pos, 1);  // predicate joins are never merged
    } else {
      EXPECT_EQ(st.op, OpKind::kInlj);
      EXPECT_NE(st.rationale.find("merge unavailable"), std::string::npos);
    }
  }
  EXPECT_GT(merges, 0u);
  EXPECT_TRUE(HasMergeOrHash(merge));

  phys::PhysicalPlan hash =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kHash));
  for (size_t k = 1; k < hash.steps.size(); ++k) {
    const phys::PhysicalStep& st = hash.steps[k];
    ASSERT_EQ(st.op, OpKind::kHash) << "step " << k;
    EXPECT_EQ(st.build_right, st.est_right <= st.est_left) << "step " << k;
  }
  EXPECT_TRUE(HasMergeOrHash(hash));
}

TEST_F(PhysFixture, AutoModeTinyLeftPrefersInlj) {
  auto bgp = Encode("?x a ex:Student . ?x ex:advisor ?p . ?p ex:teaches ?c");
  opt::Plan plan = PlanFor(bgp);
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kAuto));
  for (size_t k = 1; k < pplan.steps.size(); ++k) {
    EXPECT_EQ(pplan.steps[k].op, OpKind::kInlj);
    EXPECT_NE(pplan.steps[k].rationale.find("tiny left side"),
              std::string::npos);
  }
}

TEST_F(PhysFixture, AutoModeRecordsCostsWhenPastTinyThreshold) {
  auto bgp = Encode("?x a ex:Student . ?x ex:advisor ?p . ?p ex:teaches ?c");
  opt::Plan plan = PlanFor(bgp);
  phys::PlannerOptions opts = Forced(JoinMode::kAuto);
  opts.tiny_left = 0;  // force the cost comparison even on tiny data
  phys::PhysicalPlan pplan = phys::PlanPhysical(bgp, plan, graph_, opts);
  for (size_t k = 1; k < pplan.steps.size(); ++k) {
    EXPECT_NE(pplan.steps[k].rationale.find("est cost inlj="),
              std::string::npos)
        << pplan.steps[k].rationale;
  }
}

TEST_F(PhysFixture, TextualPlanWithoutEstimatesFallsBackToInlj) {
  auto bgp = Encode("?x a ex:Student . ?x ex:advisor ?p");
  opt::Plan plan;  // textual: order only, no estimates
  plan.order = {0, 1};
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kAuto));
  ASSERT_EQ(pplan.steps.size(), 2u);
  EXPECT_EQ(pplan.steps[1].op, OpKind::kInlj);
  EXPECT_EQ(pplan.steps[1].rationale, "no estimates (textual plan); inlj");
}

TEST_F(PhysFixture, CartesianStepIsLabeledProduct) {
  auto bgp = Encode("?x ex:takes ?c . ?p a ex:Prof");
  opt::Plan plan = PlanFor(bgp);
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kHash));
  ASSERT_EQ(pplan.steps.size(), 2u);
  EXPECT_EQ(pplan.steps[1].op, OpKind::kProduct);
  EXPECT_EQ(pplan.steps[1].join_pos, -1);
}

TEST_F(PhysFixture, ForceInljDowngradesMaterializingSteps) {
  auto bgp = Encode("?x a ex:Student . ?x ex:advisor ?p . ?p ex:teaches ?c");
  opt::Plan plan = PlanFor(bgp);
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kHash));
  ASSERT_TRUE(HasMergeOrHash(pplan));
  phys::ForceInlj(&pplan, "pipelined: ASK/LIMIT early termination");
  EXPECT_FALSE(HasMergeOrHash(pplan));
  for (size_t k = 1; k < pplan.steps.size(); ++k) {
    EXPECT_EQ(pplan.steps[k].op, OpKind::kInlj);
    EXPECT_EQ(pplan.steps[k].rationale,
              "pipelined: ASK/LIMIT early termination");
  }
}

// ---------------------------------------------------------------------------
// Verifier: the phys.* rule catalog fires on corrupted plans and stays
// silent on planner output.

TEST_F(PhysFixture, VerifierAcceptsPlannerOutputInEveryMode) {
  auto bgp = Encode(
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  opt::Plan plan = PlanFor(bgp);
  analysis::PlanVerifier verifier;
  for (JoinMode mode : {JoinMode::kAuto, JoinMode::kInlj, JoinMode::kMerge,
                        JoinMode::kHash}) {
    phys::PhysicalPlan pplan =
        phys::PlanPhysical(bgp, plan, graph_, Forced(mode));
    analysis::Diagnostics diags = verifier.Verify(pplan, plan, bgp);
    EXPECT_TRUE(diags.empty())
        << phys::JoinModeName(mode) << ": " << analysis::ToText(diags);
  }
}

TEST_F(PhysFixture, VerifierFlagsCorruptedPlans) {
  auto bgp = Encode(
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p");
  opt::Plan plan = PlanFor(bgp);
  analysis::PlanVerifier verifier;
  phys::PhysicalPlan good =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kHash));

  {
    phys::PhysicalPlan bad = good;
    bad.steps.pop_back();
    EXPECT_EQ(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.steps-size"),
              1u);
  }
  {
    phys::PhysicalPlan bad = good;
    std::swap(bad.steps[1].pattern, bad.steps[2].pattern);
    EXPECT_GE(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.pattern-mismatch"),
              1u);
  }
  {
    phys::PhysicalPlan bad = good;
    bad.steps[0].op = OpKind::kInlj;
    EXPECT_EQ(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.first-step"),
              1u);
  }
  {
    phys::PhysicalPlan bad = good;
    bad.steps[1].build_right = !bad.steps[1].build_right;
    EXPECT_EQ(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.build-side"),
              1u);
  }
  {
    phys::PhysicalPlan bad = good;
    bad.steps[1].est_right = std::numeric_limits<double>::quiet_NaN();
    // The corrupted estimate also breaks the build-side consistency rule;
    // the nonfinite rule is the one under test.
    EXPECT_GE(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.nonfinite-estimate"),
              1u);
  }
  {
    phys::PhysicalPlan bad = good;
    bad.steps[1].op = OpKind::kProduct;
    EXPECT_GE(analysis::CountRule(verifier.Verify(bad, plan, bgp),
                                  "phys.product-mislabel"),
              1u);
  }
}

TEST_F(PhysFixture, VerifierFlagsMergeWithoutSortedRun) {
  // Object join into a pattern with a bound subject and variable predicate:
  // the one shape with no index run sorted by the join component.
  auto bgp = Encode("?x a ex:Course . ex:s1 ?pred ?x");
  opt::Plan plan;
  plan.order = {0, 1};
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kMerge));
  // The planner itself refuses (falls back to INLJ)...
  ASSERT_EQ(pplan.steps[1].op, OpKind::kInlj);
  // ...and the verifier catches a hand-forced merge.
  pplan.steps[1].op = OpKind::kMerge;
  pplan.steps[1].join_pos = 2;
  pplan.steps[1].join_var = bgp.patterns[1].o.id;
  analysis::PlanVerifier verifier;
  EXPECT_GE(analysis::CountRule(verifier.Verify(pplan, plan, bgp),
                                "phys.merge-order-unavailable"),
            1u);
}

// ---------------------------------------------------------------------------
// Executor: every mode returns the reference evaluator's bag, and exactly
// the rows, order and per-step cardinalities of the all-INLJ plan.

TEST_F(PhysFixture, BgpResultsMatchOracleInEveryMode) {
  const std::vector<std::string> bodies = {
      "?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p",
      "?x ex:advisor ?p . ?p ex:teaches ?c",
      "?x ex:takes ?c . ?p a ex:Prof",          // Cartesian product
      "?x ex:takes ?c . ?c a ex:Course . ?x a ex:Student",
      "?x ?pred ?x",                            // repeated variable
  };
  for (const std::string& body : bodies) {
    SCOPED_TRACE(body);
    auto bgp = Encode(body);
    const size_t truth = reference::Evaluate(graph_, query_).rows.size();
    opt::Plan plan = PlanFor(bgp);
    std::vector<uint64_t> inlj_cards;
    for (JoinMode mode : kModes) {
      SCOPED_TRACE(phys::JoinModeName(mode));
      phys::PhysicalPlan pplan =
          phys::PlanPhysical(bgp, plan, graph_, Forced(mode));
      auto got = phys::ExecuteBgp(graph_, bgp, pplan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->num_results, truth);
      if (mode == JoinMode::kInlj) inlj_cards = got->step_cards;
      EXPECT_EQ(got->step_cards, inlj_cards);
    }
  }
}

TEST_F(PhysFixture, SelectRowsAreByteIdenticalInEveryMode) {
  const std::vector<std::string> queries = {
      "SELECT * WHERE { ?x a ex:Student . ?x ex:takes ?c . ?p ex:teaches ?c "
      ". ?x ex:advisor ?p }",
      "SELECT ?x ?c WHERE { ?x ex:takes ?c . ?c a ex:Course . ?x a "
      "ex:Student } ORDER BY ?c",
      "SELECT DISTINCT ?p WHERE { ?x ex:advisor ?p . ?p ex:teaches ?c }",
      "SELECT ?x ?n WHERE { ?x a ex:Student . ?x ex:name ?n . ?x ex:advisor "
      "?p . ?p ex:name ?m . FILTER(?n < ?m) }",
      "SELECT * WHERE { ?x ex:advisor ?p . ?p ex:teaches ?c } OFFSET 1",
  };
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\n" + text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    auto bgp = sparql::EncodeBgp(*q, graph_.dict());
    opt::Plan plan = PlanFor(bgp);
    phys::ResultTable inlj;
    for (JoinMode mode : kModes) {
      SCOPED_TRACE(phys::JoinModeName(mode));
      phys::PhysicalPlan pplan =
          phys::PlanPhysical(bgp, plan, graph_, Forced(mode));
      auto got = phys::ExecuteQuery(graph_, *q, bgp, pplan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (mode == JoinMode::kInlj) inlj = *got;
      EXPECT_EQ(got->var_names, inlj.var_names);
      EXPECT_EQ(got->rows, inlj.rows);
      EXPECT_EQ(got->bgp_matches, inlj.bgp_matches);
    }
    if (q->offset == 0 && !q->limit) {
      reference::Bag truth = reference::Evaluate(graph_, *q);
      EXPECT_EQ(inlj.var_names, truth.var_names);
      EXPECT_EQ(reference::AsBag(inlj.rows), truth.rows);
    }
  }
}

TEST_F(PhysFixture, LimitAndAskOverHashPlanReturnUnlimitedPrefix) {
  auto run = [&](const std::string& text) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\n" + text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    auto bgp = sparql::EncodeBgp(*q, graph_.dict());
    phys::PhysicalPlan pplan =
        phys::PlanPhysical(bgp, PlanFor(bgp), graph_, Forced(JoinMode::kHash));
    EXPECT_TRUE(HasMergeOrHash(pplan));
    auto r = phys::ExecuteQuery(graph_, *q, bgp, pplan);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows : std::vector<std::vector<rdf::TermId>>{};
  };
  const std::string where =
      " WHERE { ?x ex:takes ?c . ?p ex:teaches ?c . ?x ex:advisor ?p }";
  const auto all = run("SELECT *" + where);
  ASSERT_GE(all.size(), 3u);
  EXPECT_EQ(run("SELECT *" + where + " LIMIT 2"),
            std::vector<std::vector<rdf::TermId>>(all.begin(),
                                                  all.begin() + 2));
  EXPECT_EQ(run("SELECT *" + where + " LIMIT 2 OFFSET 1"),
            std::vector<std::vector<rdf::TermId>>(all.begin() + 1,
                                                  all.begin() + 3));
  EXPECT_EQ(run("ASK" + where),
            std::vector<std::vector<rdf::TermId>>(all.begin(),
                                                  all.begin() + 1));
  EXPECT_TRUE(run("ASK { ?x ex:takes ?c . ?c ex:teaches ?p }").empty());
}

TEST_F(PhysFixture, TimeoutBeforeFinalStepYieldsNoPartialRows) {
  auto bgp = Encode("?x ex:takes ?c . ?c a ex:Course . ?x a ex:Student");
  opt::Plan plan = PlanFor(bgp);
  phys::PhysicalPlan pplan =
      phys::PlanPhysical(bgp, plan, graph_, Forced(JoinMode::kHash));
  phys::ExecOptions opts;
  opts.max_intermediate_rows = 1;  // abort inside an early step
  auto r = phys::ExecuteQuery(graph_, query_, bgp, pplan, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->timed_out);
  // Rows of an aborted intermediate step are not solutions.
  EXPECT_TRUE(r->rows.empty());
}

// ---------------------------------------------------------------------------
// Commit paths: hash build-left, hash build-right and unsorted merge each
// pass their match pairs on in the depth-first order, row for row, as
// forced INLJ and the reference evaluator see them.

// Thirty students all take ex:c1, and every third also ex:c0 and ex:c2, so
// rows keyed by student are not sorted by course (c1 is interned first);
// four professors teach ex:c1; every student `ex:uses` the predicate
// ex:takes. 1200 filler triples make a full-graph span outlast one work
// tick.
std::string CommitPathData() {
  std::string ttl = "@prefix ex: <http://ex/> .\n";
  for (int i = 0; i < 30; ++i) {
    ttl += "ex:s" + std::to_string(i) + " a ex:Student ; ex:takes ex:c1";
    if (i % 3 == 0) ttl += ", ex:c0, ex:c2";
    ttl += " ; ex:uses ex:takes .\n";
  }
  for (int i = 0; i < 4; ++i) {
    ttl += "ex:p" + std::to_string(i) + " ex:teaches ex:c1 .\n";
  }
  ttl += "ex:p4 ex:teaches ex:c0 .\nex:p5 ex:teaches ex:c2 .\n";
  for (int i = 0; i < 1200; ++i) {
    ttl += "ex:f" + std::to_string(i) + " ex:filler ex:g" +
           std::to_string(i % 7) + " .\n";
  }
  return ttl;
}

enum class Breaker { kHashBuildLeft, kHashBuildRight, kMerge };

class CommitPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::ParseTurtle(CommitPathData(), &graph_).ok());
    graph_.Finalize();
  }

  void Parse(const std::string& text) {
    auto q = sparql::ParseQuery("PREFIX ex: <http://ex/>\n" + text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    query_ = *q;
    bgp_ = sparql::EncodeBgp(query_, graph_.dict());
  }

  // Textual join order; every join step runs as `breaker` (or as INLJ
  // when `breaker` is null). Join steps a merge cannot serve fall back to
  // INLJ.
  phys::PhysicalPlan PlanWith(const Breaker* breaker) {
    opt::Plan plan;
    for (uint32_t i = 0; i < bgp_.patterns.size(); ++i) plan.order.push_back(i);
    phys::PlannerOptions opts;
    opts.mode = breaker == nullptr          ? JoinMode::kInlj
                : *breaker == Breaker::kMerge ? JoinMode::kMerge
                                              : JoinMode::kHash;
    phys::PhysicalPlan pplan = phys::PlanPhysical(bgp_, plan, graph_, opts);
    for (phys::PhysicalStep& st : pplan.steps) {
      st.build_right = breaker != nullptr &&
                       *breaker == Breaker::kHashBuildRight;
    }
    return pplan;
  }

  // Runs the query with every breaker and checks rows, their order, the
  // match count and per-step cardinalities against forced INLJ, and the
  // bag against the reference evaluator. The last step must run as hash,
  // or as `merge_op` in the merge variant. Returns the INLJ rows.
  std::vector<std::vector<rdf::TermId>> ExpectSameAsInlj(OpKind merge_op) {
    const phys::PhysicalPlan inlj_plan = PlanWith(nullptr);
    auto inlj = phys::ExecuteQuery(graph_, query_, bgp_, inlj_plan);
    auto inlj_cards = phys::ExecuteBgp(graph_, bgp_, inlj_plan);
    EXPECT_TRUE(inlj.ok() && inlj_cards.ok());
    if (!inlj.ok() || !inlj_cards.ok()) return {};
    const reference::Bag truth = reference::Evaluate(graph_, query_);
    EXPECT_EQ(inlj->var_names, truth.var_names);
    EXPECT_EQ(reference::AsBag(inlj->rows), truth.rows);

    for (Breaker b : {Breaker::kHashBuildLeft, Breaker::kHashBuildRight,
                      Breaker::kMerge}) {
      SCOPED_TRACE(static_cast<int>(b));
      const phys::PhysicalPlan pplan = PlanWith(&b);
      const OpKind want = b == Breaker::kMerge ? merge_op : OpKind::kHash;
      EXPECT_EQ(pplan.steps.back().op, want) << pplan.Summary();
      auto got = phys::ExecuteQuery(graph_, query_, bgp_, pplan);
      auto cards = phys::ExecuteBgp(graph_, bgp_, pplan);
      EXPECT_TRUE(got.ok() && cards.ok());
      if (!got.ok() || !cards.ok()) continue;
      EXPECT_FALSE(got->timed_out);
      EXPECT_EQ(got->var_names, inlj->var_names);
      EXPECT_EQ(got->rows, inlj->rows);
      EXPECT_EQ(got->bgp_matches, inlj->bgp_matches);
      EXPECT_EQ(cards->step_cards, inlj_cards->step_cards);
    }
    return inlj->rows;
  }

  rdf::Graph graph_;
  sparql::ParsedQuery query_;
  sparql::EncodedBgp bgp_;
};

TEST_F(CommitPathTest, ManyLeftRowsSharingOneJoinKey) {
  // Left rows come in student order with courses c1, c0, c2, c1, ...; 30
  // of them share ex:c1, which four professors teach. The merge on ?c sees
  // an unsorted left side.
  Parse(
      "SELECT * WHERE { ?x a ex:Student . ?x ex:takes ?c . "
      "?p ex:teaches ?c }");
  const auto rows = ExpectSameAsInlj(OpKind::kMerge);
  EXPECT_EQ(rows.size(), 30u * 4 + 10 + 10);

  // The breaker's output drives a further depth-first segment.
  Parse(
      "SELECT ?x ?p ?u WHERE { ?x a ex:Student . ?x ex:takes ?c . "
      "?p ex:teaches ?c . ?x ex:uses ?u }");
  EXPECT_EQ(ExpectSameAsInlj(OpKind::kMerge).size(), 30u * 4 + 10 + 10);
}

TEST_F(CommitPathTest, PredicateJoinOfFullyFreePatternSortsWithinGroups) {
  // ?p is the only bound position of ?s ?p ?o: the full-graph span lists a
  // predicate's triples by (s, o), the probe by (o, s). No index run is
  // sorted by predicate, so the merge variant runs as INLJ.
  Parse("SELECT * WHERE { ?x ex:uses ?p . ?s ?p ?o }");
  const auto rows = ExpectSameAsInlj(OpKind::kInlj);
  EXPECT_EQ(rows.size(), 30u * 50);
  // Within one left row the objects ascend, so the probe order shows.
  ASSERT_GE(rows.size(), 50u);
  EXPECT_NE(rows[0][3], rows[49][3]);
}

TEST_F(CommitPathTest, IntermediateRowAbortInsideBreakerYieldsNoRows) {
  Parse(
      "SELECT * WHERE { ?x a ex:Student . ?x ex:takes ?c . "
      "?p ex:teaches ?c }");
  for (Breaker b : {Breaker::kHashBuildLeft, Breaker::kHashBuildRight,
                    Breaker::kMerge}) {
    SCOPED_TRACE(static_cast<int>(b));
    obs::ExecTrace trace;
    phys::ExecOptions opts;
    opts.trace = &trace;
    // Steps 0 and 1 produce 30 + 50 rows; the abort lands in step 2's
    // pair generation, before its commit.
    opts.max_intermediate_rows = 100;
    auto r = phys::ExecuteQuery(graph_, query_, bgp_, PlanWith(&b), opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->timed_out);
    EXPECT_FALSE(r->cancelled);
    EXPECT_TRUE(r->rows.empty());
    EXPECT_EQ(r->bgp_matches, 0u);
    EXPECT_EQ(trace.step_rows_produced[1], 50u);
    EXPECT_EQ(trace.step_rows_produced[2], 100u - 80u + 1u);
  }
}

TEST_F(CommitPathTest, CancelDuringBuildYieldsNoRows) {
  // A build-right hash over the full-graph span: the cancel is served on
  // the first work tick, while the index is being built.
  Parse("SELECT * WHERE { ?x ex:uses ?p . ?s ?p ?o }");
  const Breaker b = Breaker::kHashBuildRight;
  obs::ResourceTracker tracker;
  tracker.RequestCancel();
  obs::ExecTrace trace;
  phys::ExecOptions opts;
  opts.trace = &trace;
  opts.resources = &tracker;
  auto r = phys::ExecuteQuery(graph_, query_, bgp_, PlanWith(&b), opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->timed_out);
  EXPECT_TRUE(r->cancelled);
  EXPECT_TRUE(tracker.cancelled());
  EXPECT_TRUE(r->rows.empty());
  EXPECT_EQ(trace.step_rows_produced[0], 30u);
  EXPECT_EQ(trace.step_rows_produced[1], 0u);
  EXPECT_GT(trace.step_rows_scanned[1], 0u);
  EXPECT_LT(trace.step_rows_scanned[1], graph_.NumTriples());
}

// ---------------------------------------------------------------------------
// Property sweep: random 1-3 pattern BGP / FILTER queries over small
// generated graphs, in every join mode, against the reference evaluator.

// A random query whose patterns are cut from the graph's own triples:
// each term becomes a constant or a variable once, for all its
// occurrences, so shared terms become join variables; later patterns
// mostly extend the subject or object of an earlier one.
std::string RandomQuery(const rdf::Graph& g, Rng& rng) {
  const auto triples = g.triples();
  auto pick = [&rng](auto span) { return span[rng.Uniform(0, span.size() - 1)]; };
  std::vector<std::string> vars;
  std::map<rdf::TermId, std::string> names;
  auto term = [&](rdf::TermId id, double pvar) {
    auto it = names.find(id);
    if (it != names.end()) return it->second;
    const rdf::Term& t = g.dict().term(id);
    std::string name = t.ToNTriples();
    if (t.is_blank() || rng.Chance(pvar)) {
      name = "?v" + std::to_string(id);
      vars.push_back(name);
    }
    return names[id] = name;
  };
  std::vector<rdf::Triple> picked;
  std::string body;
  const int n = static_cast<int>(rng.Uniform(1, 3));
  for (int i = 0; i < n; ++i) {
    rdf::Triple t = pick(triples);
    if (!picked.empty() && rng.Chance(0.9)) {
      const rdf::Triple& prev = pick(picked);
      const rdf::TermId at = rng.Chance(0.5) ? prev.s : prev.o;
      const auto next = rng.Chance(0.5)
                            ? g.Match(at, std::nullopt, std::nullopt)
                            : g.Match(std::nullopt, std::nullopt, at);
      if (!next.empty()) t = pick(next);
    }
    picked.push_back(t);
    // One statement per draw, so the query depends on the seed alone.
    body += term(t.s, 0.8) + " ";
    body += term(t.p, 0.15) + " ";
    body += term(t.o, 0.6) + " . ";
  }
  if (!vars.empty() && rng.Chance(0.5)) {
    const char* ops[] = {"=", "!=", "<", ">="};
    const std::string lhs = pick(vars);
    const char* op = ops[rng.Uniform(0, 3)];
    const std::string rhs = rng.Chance(0.5)
                                ? pick(vars)
                                : g.dict().term(pick(triples).o).ToNTriples();
    body += "FILTER(" + lhs + " " + op + " " + rhs + ") ";
  }
  std::string head = "SELECT *";
  if (!vars.empty() && rng.Chance(0.25)) head = "SELECT DISTINCT " + pick(vars);
  if (rng.Chance(0.2)) head = "SELECT (COUNT(*) AS ?n)";
  return head + " WHERE { " + body + "}";
}

// A connected sample of a generated graph, small enough for the reference
// evaluator's nested loops: breadth-first over links in both directions
// from a random subject, taking the triples of each visited subject.
rdf::Graph Sample(const rdf::Graph& full, Rng& rng, size_t limit) {
  rdf::Graph g;
  const rdf::TermDictionary& d = full.dict();
  std::vector<rdf::TermId> queue = {
      full.triples()[rng.Uniform(0, full.NumTriples() - 1)].s};
  auto visit = [&queue](rdf::TermId id) {
    if (std::find(queue.begin(), queue.end(), id) == queue.end()) {
      queue.push_back(id);
    }
  };
  size_t added = 0;
  for (size_t i = 0; i < queue.size() && added < limit; ++i) {
    const rdf::TermId node = queue[i];
    for (const rdf::Triple& t : full.Match(node, std::nullopt, std::nullopt)) {
      if (added++ == limit) break;
      g.Add(d.term(t.s), d.term(t.p), d.term(t.o));
      visit(t.o);
    }
    for (const rdf::Triple& t : full.Match(std::nullopt, std::nullopt, node)) {
      visit(t.s);
    }
  }
  g.Finalize();
  return g;
}

// Odd seeds sample LUBM, even seeds YAGO (numeric literals for FILTERs).
class PhysOracleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PhysOracleSweep, RandomQueriesMatchOracleInEveryMode) {
  Rng rng(GetParam());
  rdf::Graph full;
  if (GetParam() % 2 == 1) {
    datagen::LubmOptions lubm;
    lubm.universities = 1;
    lubm.seed = GetParam();
    full = datagen::GenerateLubm(lubm);
  } else {
    datagen::YagoOptions yago;
    yago.num_entities = 2000;
    yago.num_classes = 20;
    yago.num_predicates = 15;
    yago.seed = GetParam();
    full = datagen::GenerateYago(yago);
  }
  const rdf::Graph graph = Sample(full, rng, 150);
  const stats::GlobalStats gs = stats::GlobalStats::Compute(graph);
  card::CardinalityEstimator est(gs, nullptr, graph.dict(),
                                 card::StatsMode::kGlobal);
  size_t breakers = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const std::string text = RandomQuery(graph, rng);
    SCOPED_TRACE(text);
    auto q = sparql::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    const auto bgp = sparql::EncodeBgp(*q, graph.dict());
    const opt::Plan plan = opt::PlanJoinOrder(bgp, est);
    sparql::ParsedQuery bare = *q;  // the BGP alone, for the count sink
    bare.filters.clear();
    bare.distinct = false;
    const size_t bgp_truth = reference::Evaluate(graph, bare).rows.size();
    const reference::Bag truth = reference::Evaluate(graph, *q);

    phys::ResultTable inlj;
    std::vector<uint64_t> inlj_cards;
    for (JoinMode mode : kModes) {
      SCOPED_TRACE(phys::JoinModeName(mode));
      phys::PlannerOptions popts;
      popts.mode = mode;
      popts.tiny_left = 0;  // let auto weigh merge and hash on tiny data
      const phys::PhysicalPlan pplan =
          phys::PlanPhysical(bgp, plan, graph, popts);
      if (HasMergeOrHash(pplan)) ++breakers;
      auto counted = phys::ExecuteBgp(graph, bgp, pplan);
      ASSERT_TRUE(counted.ok()) << counted.status().ToString();
      EXPECT_EQ(counted->num_results, bgp_truth);
      auto got = phys::ExecuteQuery(graph, *q, bgp, pplan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (mode == JoinMode::kInlj) {
        inlj = *got;
        inlj_cards = counted->step_cards;
      }
      EXPECT_EQ(counted->step_cards, inlj_cards);
      EXPECT_EQ(got->rows, inlj.rows);
      EXPECT_EQ(got->bgp_matches, inlj.bgp_matches);
    }
    if (q->count_aggregate) {
      EXPECT_EQ(inlj.bgp_matches, truth.rows.size());
    } else {
      EXPECT_EQ(inlj.var_names, truth.var_names);
      EXPECT_EQ(reference::AsBag(inlj.rows), truth.rows);
    }
  }
  // The sweep must reach the merge and hash operators to mean anything.
  EXPECT_GT(breakers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysOracleSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ---------------------------------------------------------------------------
// End-to-end: forced operator modes produce byte-identical tables on the
// LUBM workload, across pool sizes 1 and 4.

uint64_t TableDigest(const phys::ResultTable& table) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(table.var_names.size());
  for (const std::string& name : table.var_names) {
    for (char c : name) mix(static_cast<unsigned char>(c));
  }
  mix(table.rows.size());
  for (const auto& row : table.rows) {
    for (rdf::TermId t : row) mix(t);
  }
  return h;
}

struct ModeRun {
  std::vector<uint64_t> digests;  // per query
  size_t merge_steps = 0;
  size_t hash_steps = 0;
};

ModeRun RunWorkload(const engine::QueryEngine& eng,
                    const std::vector<std::string>& queries,
                    util::ThreadPool* pool) {
  engine::BatchOptions opts;
  opts.pool = pool;
  engine::BatchResult batch = eng.ExecuteBatch(queries, opts);
  ModeRun run;
  EXPECT_EQ(batch.results.size(), queries.size());
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const auto& r = batch.results[i];
    EXPECT_TRUE(r.ok()) << "query " << i << ": " << r.status().ToString();
    if (!r.ok()) {
      run.digests.push_back(0);
      continue;
    }
    EXPECT_FALSE(r->table.timed_out) << "query " << i;
    run.digests.push_back(TableDigest(r->table));
    for (const phys::PhysicalStep& st : r->phys.steps) {
      if (st.op == OpKind::kMerge) ++run.merge_steps;
      if (st.op == OpKind::kHash) ++run.hash_steps;
    }
  }
  return run;
}

TEST(PhysWorkloadTest, ForcedOperatorsMatchInljDigestsAcrossPoolSizes) {
  datagen::LubmOptions lubm;
  lubm.universities = 3;

  std::vector<std::string> queries;
  for (const workload::BenchQuery& q : workload::LubmQueries()) {
    queries.push_back(q.text);
  }

  util::ThreadPool one(1);
  util::ThreadPool four(4);

  std::vector<uint64_t> baseline;
  for (JoinMode mode : {JoinMode::kInlj, JoinMode::kAuto, JoinMode::kMerge,
                        JoinMode::kHash}) {
    SCOPED_TRACE(phys::JoinModeName(mode));
    engine::EngineOptions opts;
    opts.join_mode = mode;
    auto eng = engine::QueryEngine::Open(datagen::GenerateLubm(lubm), opts);
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();

    ModeRun seq = RunWorkload(*eng, queries, &one);
    ModeRun par = RunWorkload(*eng, queries, &four);
    EXPECT_EQ(seq.digests, par.digests) << "pool size changed results";

    if (mode == JoinMode::kInlj) {
      baseline = seq.digests;
      EXPECT_EQ(seq.merge_steps + seq.hash_steps, 0u);
    } else {
      EXPECT_EQ(seq.digests, baseline)
          << "operator choice changed result bytes";
    }
    // Forced modes must actually exercise the materializing operators —
    // otherwise the digest equality above is vacuous.
    if (mode == JoinMode::kMerge) {
      EXPECT_GT(seq.merge_steps, 0u);
    }
    if (mode == JoinMode::kHash) {
      EXPECT_GT(seq.hash_steps, 0u);
    }
  }
}

}  // namespace
}  // namespace shapestats
