// Tests for the plan cache subsystem (src/cache/): template
// canonicalization properties (rename/shuffle/constant invariance, no
// false sharing), LRU eviction, the feedback store's publication rules,
// the corrected estimate provider, and the engine integration — cached
// executions must be byte-identical to uncached ones across pool sizes,
// and ledger feedback must be able to flip a plan without changing its
// results.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "cache/feedback_store.h"
#include "cache/plan_cache.h"
#include "cache/template_key.h"
#include "card/corrected.h"
#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "util/thread_pool.h"

namespace shapestats {
namespace {

constexpr const char* kData = R"(
@prefix ex: <http://ex/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:a rdf:type ex:Item ; ex:price 10 ; ex:label "alpha" ; ex:link ex:b .
ex:b rdf:type ex:Item ; ex:price 25 ; ex:label "beta" ; ex:link ex:c .
ex:c rdf:type ex:Item ; ex:price 25 ; ex:label "gamma" ; ex:link ex:d .
ex:d rdf:type ex:Other ; ex:price 40 ; ex:label "delta" ; ex:link ex:a .
)";

class TemplateKeyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::ParseTurtle(kData, &graph_).ok());
    graph_.Finalize();
    rdf_type_ = graph_.dict()
                    .FindIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
                    .value_or(rdf::kInvalidTermId);
    ASSERT_NE(rdf_type_, rdf::kInvalidTermId);
  }

  cache::CanonicalTemplate Canon(const std::string& text) {
    auto q = sparql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString() << "\n" << text;
    sparql::EncodedBgp bgp = sparql::EncodeBgp(*q, graph_.dict());
    return cache::CanonicalizeTemplate(*q, bgp, rdf_type_);
  }

  std::string Key(const std::string& text) {
    cache::CanonicalTemplate t = Canon(text);
    EXPECT_TRUE(t.cacheable) << t.bypass_reason << "\n" << text;
    return t.key;
  }

  rdf::Graph graph_;
  rdf::TermId rdf_type_ = rdf::kInvalidTermId;
};

TEST_F(TemplateKeyFixture, RenamedVariablesShareKey) {
  std::string a = Key(
      "PREFIX ex: <http://ex/> SELECT ?x ?y WHERE "
      "{ ?x ex:link ?y . ?x ex:price ?p }");
  std::string b = Key(
      "PREFIX ex: <http://ex/> SELECT ?s ?t WHERE "
      "{ ?s ex:link ?t . ?s ex:price ?cost }");
  EXPECT_EQ(a, b);
}

TEST_F(TemplateKeyFixture, ShuffledPatternsShareKey) {
  // Star with distinct predicates.
  EXPECT_EQ(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE "
                "{ ?x ex:price ?p . ?x ex:label ?l . ?x ex:link ?y }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE "
                "{ ?x ex:link ?y . ?x ex:price ?p . ?x ex:label ?l }"));
  // Path whose patterns share one predicate — structural signatures tie,
  // so ordering must come from the refinement, not the input order.
  EXPECT_EQ(Key("PREFIX ex: <http://ex/> SELECT ?a WHERE "
                "{ ?a ex:link ?b . ?b ex:link ?c . ?c ex:link ?d }"),
            Key("PREFIX ex: <http://ex/> SELECT ?z WHERE "
                "{ ?y ex:link ?w . ?z ex:link ?x . ?x ex:link ?y }"));
}

TEST_F(TemplateKeyFixture, ConstantsParameterizeButPreserveDistinctness) {
  // Different bound objects of a non-rdf:type predicate: one template.
  EXPECT_EQ(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:link ex:b }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:link ex:c }"));
  // Repeated constant vs. two distinct constants: different templates
  // (the equality class changes which joins are implied).
  EXPECT_NE(Key("PREFIX ex: <http://ex/> SELECT ?x ?y WHERE "
                "{ ?x ex:link ex:b . ?y ex:link ex:b }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x ?y WHERE "
                "{ ?x ex:link ex:b . ?y ex:link ex:c }"));
}

TEST_F(TemplateKeyFixture, SemanticsStayConcrete) {
  // Predicates select the statistics: never merged.
  EXPECT_NE(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:label ?p }"));
  // rdf:type objects are class anchors: never merged.
  EXPECT_NE(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Item }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a ex:Other }"));
  // FILTER constants are value-sensitive: never merged.
  EXPECT_NE(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE "
                "{ ?x ex:price ?p . FILTER(?p > 10) }"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE "
                "{ ?x ex:price ?p . FILTER(?p > 25) }"));
  // Query form / modifiers are part of the key.
  std::string base =
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p }";
  EXPECT_NE(Key(base),
            Key("PREFIX ex: <http://ex/> SELECT DISTINCT ?x WHERE "
                "{ ?x ex:price ?p }"));
  EXPECT_NE(Key(base),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p } "
                "ORDER BY ?x"));
  EXPECT_NE(Key(base),
            Key("PREFIX ex: <http://ex/> SELECT ?p WHERE { ?x ex:price ?p }"));
  EXPECT_NE(Key(base),
            Key("PREFIX ex: <http://ex/> ASK WHERE { ?x ex:price ?p }"));
}

TEST_F(TemplateKeyFixture, LimitExcludedFromKey) {
  // LIMIT/OFFSET are applied per-instance, not planned: one template.
  EXPECT_EQ(Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p } "
                "LIMIT 2"),
            Key("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:price ?p } "
                "LIMIT 5 OFFSET 1"));
}

TEST_F(TemplateKeyFixture, MissingConstantBypasses) {
  cache::CanonicalTemplate t = Canon(
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:link ex:nosuch }");
  EXPECT_FALSE(t.cacheable);
  EXPECT_EQ(t.bypass_reason, "missing-constant");
}

TEST_F(TemplateKeyFixture, RandomizedRenameShuffleInvariance) {
  // A bank of structurally distinct templates. For each: every shuffled +
  // renamed variant maps to the same key; across templates, keys are
  // pairwise distinct.
  const std::vector<std::vector<std::string>> banks = {
      {"?A ex:link ?B", "?B ex:price ?C"},
      {"?A ex:link ?B", "?B ex:link ?C"},
      {"?A ex:link ?B", "?A ex:price ?C"},
      {"?A ex:price ?B", "?C ex:price ?D"},
      {"?A a ex:Item", "?A ex:link ?B", "?B ex:price ?C"},
      {"?A a ex:Other", "?A ex:link ?B", "?B ex:price ?C"},
      {"?A ex:link ?B", "?B ex:link ?C", "?C ex:link ?A"},
  };
  std::mt19937 rng(12345);
  const char* names[] = {"?v0", "?v1", "?v2", "?v3", "?v4", "?v5"};
  std::vector<std::string> canon_keys;
  for (const auto& bank : banks) {
    std::string ref;
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::string> pats = bank;
      std::shuffle(pats.begin(), pats.end(), rng);
      std::vector<int> perm = {0, 1, 2, 3, 4, 5};
      std::shuffle(perm.begin(), perm.end(), rng);
      std::string where;
      for (std::string p : pats) {
        for (int v = 0; v < 6; ++v) {
          std::string from = "?" + std::string(1, char('A' + v));
          size_t pos;
          while ((pos = p.find(from)) != std::string::npos) {
            p.replace(pos, from.size(), names[perm[v]]);
          }
        }
        where += p + " . ";
      }
      std::string key =
          Key("PREFIX ex: <http://ex/> SELECT * WHERE { " + where + "}");
      if (trial == 0) {
        ref = key;
      } else {
        EXPECT_EQ(key, ref) << "variant diverged: { " << where << "}";
      }
    }
    for (const std::string& other : canon_keys) EXPECT_NE(ref, other);
    canon_keys.push_back(ref);
  }
}

// --- PlanCache unit behavior ---

TEST(PlanCacheTest, LruEvictionAndStats) {
  cache::PlanCache::Options opts;
  opts.capacity = 2;
  cache::PlanCache pc(opts);
  auto entry = [] { return std::make_shared<cache::CachedPlan>(); };
  pc.Put("a", entry());
  pc.Put("b", entry());
  ASSERT_NE(pc.Get("a"), nullptr);  // a is now most recent
  pc.Put("c", entry());             // evicts b
  EXPECT_EQ(pc.Get("b"), nullptr);
  EXPECT_NE(pc.Get("a"), nullptr);
  EXPECT_NE(pc.Get("c"), nullptr);
  cache::PlanCache::StatsSnapshot s = pc.stats();
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
  pc.InvalidateAll();
  EXPECT_EQ(pc.size(), 0u);
  EXPECT_EQ(pc.Get("a"), nullptr);
}

TEST(PlanCacheTest, FeedbackVersionInvalidatesEntry) {
  cache::PlanCache pc;
  auto e = std::make_shared<cache::CachedPlan>();
  e->template_hash = 42;
  e->feedback_version = pc.feedback().Version(42);
  pc.Put("k", std::move(e));
  ASSERT_NE(pc.Get("k"), nullptr);
  // Three strongly-drifted observations publish a factor and bump the
  // template's version; the entry now reads as stale.
  for (int i = 0; i < 3; ++i) {
    pc.RecordFeedback(42, {{0, 4.0}});
  }
  EXPECT_GT(pc.feedback().Version(42), 0u);
  EXPECT_EQ(pc.Get("k"), nullptr);
  EXPECT_GE(pc.stats().invalidations, 1u);
}

TEST(FeedbackStoreTest, PublicationRules) {
  cache::FeedbackStore fs;
  // Below min_observations: nothing published.
  EXPECT_EQ(fs.Record(1, {{0, 8.0}}), 0u);
  EXPECT_EQ(fs.Record(1, {{0, 8.0}}), 0u);
  EXPECT_EQ(fs.Factors(1, 1)[0], 1.0);
  EXPECT_EQ(fs.Version(1), 0u);
  // Third observation publishes the geometric mean.
  EXPECT_EQ(fs.Record(1, {{0, 8.0}}), 1u);
  EXPECT_NEAR(fs.Factors(1, 1)[0], 8.0, 1e-9);
  EXPECT_EQ(fs.Version(1), 1u);
  // Tiny drift never publishes.
  for (int i = 0; i < 10; ++i) fs.Record(2, {{0, 1.05}});
  EXPECT_EQ(fs.Factors(2, 1)[0], 1.0);
  EXPECT_EQ(fs.Version(2), 0u);
  // Factors clamp at max_factor.
  for (int i = 0; i < 3; ++i) fs.Record(3, {{0, 1e9}});
  EXPECT_LE(fs.Factors(3, 1)[0], 1024.0);
  // Non-finite / non-positive ratios are ignored.
  EXPECT_EQ(fs.Record(4, {{0, 0.0}, {0, -3.0}}), 0u);
  EXPECT_EQ(fs.Factors(4, 1)[0], 1.0);
}

namespace {
class FakeProvider : public card::PlannerStatsProvider {
 public:
  std::string name() const override { return "fake"; }
  std::vector<card::TpEstimate> EstimateAll(
      const sparql::EncodedBgp& bgp) const override {
    return std::vector<card::TpEstimate>(bgp.patterns.size(),
                                         {100.0, 50.0, 40.0});
  }
};
}  // namespace

TEST(CorrectedProviderTest, ScalesCardAndCapsDistincts) {
  FakeProvider base;
  sparql::EncodedBgp bgp;
  bgp.patterns.resize(2);
  card::CorrectedProvider grow(base, {4.0, 1.0});
  std::vector<card::TpEstimate> est = grow.EstimateAll(bgp);
  EXPECT_NEAR(est[0].card, 400.0, 1e-9);
  EXPECT_NEAR(est[0].dsc, 50.0, 1e-9);  // growing never inflates distincts
  EXPECT_NEAR(est[1].card, 100.0, 1e-9);
  card::CorrectedProvider shrink(base, {0.1, 1.0});
  est = shrink.EstimateAll(bgp);
  EXPECT_NEAR(est[0].card, 10.0, 1e-9);
  // Distinct counts cannot exceed the corrected row count.
  EXPECT_NEAR(est[0].dsc, 10.0, 1e-9);
  EXPECT_NEAR(est[0].doc, 10.0, 1e-9);
  EXPECT_EQ(grow.name(), "fake");  // ledger label stability
}

// --- engine integration ---

std::string TableDigest(const rdf::Graph& g, const phys::ResultTable& t) {
  std::string out;
  for (const std::string& v : t.var_names) out += v + "|";
  out += "\n";
  for (const auto& row : t.rows) {
    for (rdf::TermId id : row) out += g.dict().ToNTriples(id) + "|";
    out += "\n";
  }
  return out;
}

const std::vector<std::string>& LubmQueries() {
  static const std::vector<std::string> queries = {
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y WHERE { ?x ub:advisor ?y . "
      "?x a ub:GraduateStudent }",
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y ?z WHERE { ?x ub:memberOf ?z . ?z ub:subOrganizationOf ?y "
      ". ?x ub:degreeFrom ?y }",
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x WHERE { ?x a ub:FullProfessor . ?x ub:teacherOf ?c } "
      "ORDER BY ?x LIMIT 20",
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?s ?e WHERE { ?s ub:emailAddress ?e . ?s a ub:Lecturer }",
  };
  return queries;
}

class CacheEngineFixture : public ::testing::Test {
 protected:
  static engine::QueryEngine MakeEngine(
      engine::EngineOptions::PlanCacheMode mode) {
    datagen::LubmOptions dopts;
    dopts.universities = 2;
    engine::EngineOptions opts;
    opts.plan_cache = mode;
    auto e = engine::QueryEngine::Open(datagen::GenerateLubm(dopts), opts);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  }
};

TEST_F(CacheEngineFixture, CachedResultsByteIdenticalToUncached) {
  engine::QueryEngine off = MakeEngine(engine::EngineOptions::PlanCacheMode::kOff);
  engine::QueryEngine on = MakeEngine(engine::EngineOptions::PlanCacheMode::kOn);
  ASSERT_EQ(off.plan_cache(), nullptr);
  ASSERT_NE(on.plan_cache(), nullptr);
  for (const std::string& q : LubmQueries()) {
    auto base = off.Execute(q);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    // First run misses and populates; second run must hit and match byte
    // for byte.
    auto cold = on.Execute(q);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    auto warm = on.Execute(q);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(TableDigest(off.graph(), base->table),
              TableDigest(on.graph(), cold->table));
    EXPECT_EQ(TableDigest(on.graph(), cold->table),
              TableDigest(on.graph(), warm->table));
    EXPECT_EQ(warm->plan.order, cold->plan.order);
  }
  cache::PlanCache::StatsSnapshot s = on.plan_cache()->stats();
  EXPECT_EQ(s.size, LubmQueries().size());
  EXPECT_GE(s.hits, LubmQueries().size());
}

TEST_F(CacheEngineFixture, SemanticallyIdenticalQueriesShareOneEntry) {
  engine::QueryEngine eng = MakeEngine(engine::EngineOptions::PlanCacheMode::kOn);
  const std::string q1 =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?x a ub:GraduateStudent }";
  // Renamed variables AND shuffled patterns.
  const std::string q2 =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?s ?adv WHERE { ?s a ub:GraduateStudent . ?s ub:advisor ?adv }";
  auto r1 = eng.Execute(q1);
  auto r2 = eng.Execute(q2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->table.rows.size(), r2->table.rows.size());
  cache::PlanCache::StatsSnapshot s = eng.plan_cache()->stats();
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST_F(CacheEngineFixture, BatchPoolSizesProduceIdenticalResults) {
  engine::QueryEngine off = MakeEngine(engine::EngineOptions::PlanCacheMode::kOff);
  engine::QueryEngine on = MakeEngine(engine::EngineOptions::PlanCacheMode::kOn);
  // Duplicate the workload so the second copies hit the warm cache even
  // within one batch.
  std::vector<std::string> workload = LubmQueries();
  workload.insert(workload.end(), LubmQueries().begin(), LubmQueries().end());
  engine::BatchResult ref = off.ExecuteBatch(workload);
  for (unsigned threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    engine::BatchOptions bopts;
    bopts.pool = &pool;
    engine::BatchResult got = on.ExecuteBatch(workload, bopts);
    ASSERT_EQ(got.results.size(), ref.results.size());
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_TRUE(ref.results[i].ok());
      ASSERT_TRUE(got.results[i].ok()) << got.results[i].status().ToString();
      EXPECT_EQ(TableDigest(off.graph(), ref.results[i]->table),
                TableDigest(on.graph(), got.results[i]->table))
          << "pool=" << threads << " query=" << i;
    }
  }
  EXPECT_GE(on.plan_cache()->stats().hits, LubmQueries().size());
}

// Skewed dataset where global statistics mis-estimate a bound-object scan
// by 6x: ex:hot has 100 triples over 10 distinct objects (estimate 10 per
// object) but hot0 actually matches 60 subjects. ex:flag has 30 triples.
std::string SkewedData() {
  std::string data = "@prefix ex: <http://ex/> .\n";
  for (int i = 0; i < 100; ++i) {
    std::string obj = i < 60 ? "ex:hot0" : "ex:hot" + std::to_string(1 + i % 9);
    data += "ex:s" + std::to_string(i) + " ex:hot " + obj + " .\n";
  }
  for (int i = 0; i < 30; ++i) {
    data += "ex:s" + std::to_string(i) + " ex:flag ex:on .\n";
  }
  return data;
}

TEST(FeedbackCorrectionTest, LearnedFactorsFlipPlanWithoutChangingResults) {
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseTurtle(SkewedData(), &g).ok());
  g.Finalize();
  engine::EngineOptions opts;
  opts.optimizer = engine::EngineOptions::Optimizer::kGlobalStats;
  opts.plan_cache = engine::EngineOptions::PlanCacheMode::kOn;
  auto opened = engine::QueryEngine::Open(std::move(g), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  engine::QueryEngine eng = std::move(opened).value();

  // Estimated: hot-scan 100/10 = 10 rows < flag-scan 30 rows, so the
  // uncorrected plan opens with the hot pattern. True: 60 > 30.
  const std::string q =
      "PREFIX ex: <http://ex/> SELECT ?x WHERE "
      "{ ?x ex:hot ex:hot0 . ?x ex:flag ?v }";
  std::vector<std::string> digests;
  std::vector<std::vector<uint32_t>> orders;
  for (int run = 0; run < 4; ++run) {
    obs::QueryTrace trace;  // feedback only folds in on traced executions
    auto r = eng.Execute(q, &trace);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    digests.push_back(TableDigest(eng.graph(), r->table));
    orders.push_back(r->plan.order);
    if (run == 0) {
      EXPECT_TRUE(r->plan.correction_factors.empty());
    }
    if (run == 3) {
      // Versions bumped after run 3's publication: this run re-planned
      // under the learned factors.
      EXPECT_FALSE(r->plan.correction_factors.empty());
      EXPECT_TRUE(trace.est_corrected);
    }
  }
  // Results never change...
  for (const std::string& d : digests) EXPECT_EQ(d, digests[0]);
  // ...but the learned 6x under-estimate flips the opening scan.
  EXPECT_EQ(orders[0], orders[1]);
  EXPECT_NE(orders[3], orders[0]);
  EXPECT_GE(eng.plan_cache()->stats().invalidations, 1u);
  EXPECT_GE(eng.plan_cache()->feedback().NumPublished(), 1u);

  // EXPLAIN surfaces the correction.
  auto ex = eng.Explain(q);
  ASSERT_TRUE(ex.ok());
  EXPECT_NE(ex->find("est: corrected"), std::string::npos) << *ex;
}

TEST_F(CacheEngineFixture, ExplainReportsCacheState) {
  engine::QueryEngine eng = MakeEngine(engine::EngineOptions::PlanCacheMode::kOn);
  const std::string q =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?x a ub:GraduateStudent }";
  auto cold = eng.Explain(q);
  ASSERT_TRUE(cold.ok());
  EXPECT_NE(cold->find("plan: not cached (template t:"), std::string::npos)
      << *cold;
  ASSERT_TRUE(eng.Execute(q).ok());
  auto warm = eng.Explain(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("plan: cached (t:"), std::string::npos) << *warm;
}

}  // namespace
}  // namespace shapestats
