#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>

#include "analysis/plan_verify.h"
#include "analysis/query_lint.h"
#include "card/corrected.h"
#include "obs/build_info.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "opt/join_order.h"
#include "phys/phys_executor.h"
#include "phys/planner.h"
#include "rdf/ntriples.h"
#include "shacl/generator.h"
#include "sparql/parser.h"
#include "stats/annotator.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace shapestats::engine {

namespace {

/// Resolves EngineOptions::plan_cache against SHAPESTATS_PLAN_CACHE.
bool PlanCacheEnabled(EngineOptions::PlanCacheMode mode) {
  switch (mode) {
    case EngineOptions::PlanCacheMode::kOn: return true;
    case EngineOptions::PlanCacheMode::kOff: return false;
    case EngineOptions::PlanCacheMode::kEnv: break;
  }
  const char* env = std::getenv("SHAPESTATS_PLAN_CACHE");
  if (env == nullptr || *env == '\0') return false;
  const std::string_view v(env);
  return v != "0" && v != "off" && v != "false" && v != "no";
}

/// Resolves EngineOptions::registry against SHAPESTATS_REGISTRY.
bool RegistryEnabled(EngineOptions::RegistryMode mode) {
  switch (mode) {
    case EngineOptions::RegistryMode::kOn: return true;
    case EngineOptions::RegistryMode::kOff: return false;
    case EngineOptions::RegistryMode::kEnv: break;
  }
  return obs::QueryRegistry::EnabledByEnv();
}

std::string FmtNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// "2,0,1": a join order as the query.plan event and flight bundles print it.
std::string JoinOrder(const std::vector<uint32_t>& order) {
  std::string out;
  for (uint32_t tp : order) {
    if (!out.empty()) out += ",";
    out += std::to_string(tp);
  }
  return out;
}

/// Feedback-learned correction factors in force for one query's template,
/// mapped from canonical into instance pattern numbering (empty when every
/// factor is 1, the cache is off, or the query bypasses it). The version is
/// read before the factors so a concurrent publication can only make a
/// cache entry look stale (a harmless re-plan), never fresh.
struct Corrections {
  uint64_t version = 0;
  std::vector<double> instance;
};

Corrections FeedbackCorrections(const cache::PlanCache* pcache,
                                const cache::CanonicalTemplate& tmpl,
                                size_t num_patterns) {
  Corrections c;
  if (pcache == nullptr || !tmpl.cacheable) return c;
  c.version = pcache->feedback().Version(tmpl.hash);
  const std::vector<double> canon =
      pcache->feedback().Factors(tmpl.hash, num_patterns);
  if (std::all_of(canon.begin(), canon.end(),
                  [](double f) { return f == 1.0; })) {
    return c;
  }
  for (uint32_t i : tmpl.instance_to_canon) c.instance.push_back(canon[i]);
  return c;
}

/// Per-step observed/estimated ratios attributed to the pattern each step
/// introduced, expressed against the *uncorrected* estimate (applied
/// factors composed back in) in canonical pattern numbering. Step 0 blames
/// the opening scan's pattern directly; step k >= 1 blames its pattern
/// with the incremental ratio (true_k/true_{k-1}) / (est_k/est_{k-1}), so
/// upstream misestimates are not double-counted downstream.
std::vector<cache::FeedbackStore::Sample> FeedbackSamples(
    const cache::CanonicalTemplate& tmpl, const opt::Plan& plan,
    const std::vector<uint64_t>& truth) {
  std::vector<cache::FeedbackStore::Sample> samples;
  const std::vector<double>& est = plan.step_estimates;
  const std::vector<double>& factors = plan.correction_factors;
  const size_t n = std::min(est.size(), truth.size());
  double prev_t = 0;
  double prev_e = 0;
  for (size_t k = 0; k < n && k < plan.order.size(); ++k) {
    const uint32_t tp = plan.order[k];
    if (tp >= tmpl.instance_to_canon.size()) break;
    const double applied = tp < factors.size() ? factors[tp] : 1.0;
    // A true count of zero still carries signal (the estimate was high);
    // clamp to 0.5 so the log-ratio stays finite.
    const double t = std::max(static_cast<double>(truth[k]), 0.5);
    const double e = est[k];
    if (!(e > 0) || !std::isfinite(e)) break;
    double ratio;
    if (k == 0) {
      ratio = t / e * applied;
    } else {
      if (!(prev_t > 0) || !(prev_e > 0)) break;
      ratio = (t / prev_t) / (e / prev_e) * applied;
    }
    samples.push_back({tmpl.instance_to_canon[tp], ratio});
    // Once the true intermediate hits zero every later step is zero too —
    // no attributable signal remains.
    if (truth[k] == 0) break;
    prev_t = t;
    prev_e = e;
  }
  return samples;
}

}  // namespace

const char* OptimizerName(EngineOptions::Optimizer opt) {
  switch (opt) {
    case EngineOptions::Optimizer::kShapeStats: return "shape-stats";
    case EngineOptions::Optimizer::kGlobalStats: return "global-stats";
    case EngineOptions::Optimizer::kTextual: return "textual";
  }
  return "?";
}

Result<QueryEngine> QueryEngine::Open(rdf::Graph graph, EngineOptions options) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized before Open");
  }
  Timer open_timer;
  obs::TraceSpan open_span("engine", "open");
  QueryEngine engine;
  engine.state_ = std::make_unique<State>();
  State& st = *engine.state_;
  st.options = options;
  st.graph = std::move(graph);
  util::ThreadPool* pool = options.pool;
  Timer phase;
  {
    obs::TraceSpan span("engine", "preprocess:global_stats");
    st.gs = stats::GlobalStats::Compute(st.graph, pool);
  }
  obs::MetricsRegistry::Global().Observe("engine.preprocess.global_stats_ms",
                                         phase.ElapsedMs());

  switch (options.optimizer) {
    case EngineOptions::Optimizer::kShapeStats: {
      auto shapes = shacl::GenerateShapes(st.graph);
      // Data without rdf:type triples cannot anchor shapes; degrade to
      // global statistics rather than failing.
      if (shapes.ok()) {
        st.shapes = std::move(shapes).value();
        phase.Reset();
        {
          obs::TraceSpan span("engine", "preprocess:annotate_shapes");
          RETURN_NOT_OK(
              stats::AnnotateShapes(st.graph, &st.shapes, pool).status());
        }
        obs::MetricsRegistry::Global().Observe("engine.preprocess.annotate_ms",
                                               phase.ElapsedMs());
        st.estimator = std::make_unique<card::CardinalityEstimator>(
            st.gs, &st.shapes, st.graph.dict(), card::StatsMode::kShape);
      } else {
        st.estimator = std::make_unique<card::CardinalityEstimator>(
            st.gs, nullptr, st.graph.dict(), card::StatsMode::kGlobal);
      }
      break;
    }
    case EngineOptions::Optimizer::kGlobalStats:
      st.estimator = std::make_unique<card::CardinalityEstimator>(
          st.gs, nullptr, st.graph.dict(), card::StatsMode::kGlobal);
      break;
    case EngineOptions::Optimizer::kTextual:
      break;
  }
  if (PlanCacheEnabled(options.plan_cache)) {
    st.plan_cache =
        std::make_unique<cache::PlanCache>(options.plan_cache_options);
  }
  if (RegistryEnabled(options.registry)) {
    st.registry = &obs::QueryRegistry::Global();
  }
  if (obs::FlightRecorder::Global().active()) {
    st.flight = &obs::FlightRecorder::Global();
  }
  obs::PublishPoolMetrics(pool != nullptr ? *pool : util::ThreadPool::Shared());
  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    log.Emit(obs::Event("engine.open")
                 .Str("optimizer", OptimizerName(options.optimizer))
                 .Uint("triples", st.graph.NumTriples())
                 .Uint("shapes", st.shapes.NumNodeShapes())
                 .Num("ms", open_timer.ElapsedMs()));
  }
  return engine;
}

Result<QueryEngine> QueryEngine::FromNTriplesFile(const std::string& path,
                                                  EngineOptions options) {
  rdf::Graph graph;
  {
    obs::TraceSpan span("engine", "preprocess:load");
    RETURN_NOT_OK(rdf::LoadNTriplesFile(path, &graph));
  }
  Timer phase;
  {
    obs::TraceSpan span("engine", "preprocess:finalize");
    graph.Finalize(options.pool);
  }
  obs::MetricsRegistry::Global().Observe("engine.preprocess.finalize_ms",
                                         phase.ElapsedMs());
  return Open(std::move(graph), options);
}

analysis::ShapeChecker QueryEngine::Checker() const {
  return analysis::ShapeChecker(
      state_->gs,
      state_->shapes.NumNodeShapes() > 0 ? &state_->shapes : nullptr,
      state_->graph.dict());
}

/// One query's passage through the engine. Every entry point runs its front
/// half (Parse, CheckStatic, Plan) over this record; Execute also finishes
/// through it, and flight bundles are a view of it.
struct QueryEngine::Lifecycle {
  Lifecycle(std::string_view text, obs::QueryTrace* query_trace,
            obs::QueryRegistry* registry, const ExecContext* caller)
      : sparql(text), trace(query_trace) {
    if (caller != nullptr) ctx = *caller;
    // The live registry record (with its per-query ResourceTracker) exists
    // from here until Finish completes it; early error returns finalize it
    // with outcome "error" via RAII. A traced run without a registry still
    // gets a local tracker so callers see resource totals.
    if (registry != nullptr) {
      reg = registry->Register(std::string(text), ctx.request_id,
                               ctx.batch_id, ctx.slot);
      tracker = reg.tracker();
    } else if (trace != nullptr) {
      tracker = &local_tracker.emplace();
    }
  }

  /// Closes the trace span `done` (traced runs; null closes none) and moves
  /// the live registry record to phase `next` (when non-null).
  void Phase(const char* done, const char* next = nullptr) {
    if (trace != nullptr && done != nullptr) {
      trace->AddPhase(done, phase.ElapsedMs());
      phase.Reset();
    }
    if (next != nullptr) reg.SetPhase(next);
  }

  /// Stamps the plan Execute or ExplainAnalyze settled on onto the trace.
  void Planned(const opt::Plan& plan) {
    if (trace == nullptr) return;
    trace->optimizer = plan.provider;
    trace->query_shape = sparql::QueryShapeName(shape);
    trace->est_total_cost = plan.total_cost;
    trace->est_corrected = std::any_of(plan.correction_factors.begin(),
                                       plan.correction_factors.end(),
                                       [](double f) { return f != 1.0; });
  }

  /// A provably-empty verdict on a query the executor would not reject.
  bool ShortCircuits() const { return check.provably_empty() && !lint_errors; }

  std::string_view sparql;
  obs::QueryTrace* trace;
  ExecContext ctx;
  Timer total;
  Timer phase;
  obs::QueryRegistry::Registration reg;
  std::optional<obs::ResourceTracker> local_tracker;
  obs::ResourceTracker* tracker = nullptr;

  sparql::ParsedQuery query;
  sparql::EncodedBgp bgp;
  sparql::QueryShape shape = sparql::QueryShape::kComplex;
  // Static verdict: CheckStatic's, or the one stored in the plan cache.
  analysis::ShapeCheckResult check;
  bool lint_errors = false;
  std::unordered_map<sparql::VarId, rdf::TermId> anchors;
  // Plan-cache template; `template_id` names it in the registry record and
  // flight bundles (empty when the query did not go through the cache).
  cache::CanonicalTemplate tmpl;
  std::string template_id;
  // Executed runs: per-pattern estimate provenance (traced runs only), the
  // final resource snapshot, and how execution ended.
  std::vector<card::EstimateDetail> details;
  std::optional<obs::ResourceSnapshot> resources;
  bool timed_out = false;
  bool cancelled = false;
};

Status QueryEngine::Parse(Lifecycle& q) const {
  ASSIGN_OR_RETURN(q.query, sparql::ParseQuery(q.sparql));
  if (q.trace != nullptr) q.trace->query = std::string(q.sparql);
  q.Phase("parse");
  q.bgp = sparql::EncodeBgp(q.query, state_->graph.dict());
  q.Phase("encode", "analyze");
  q.shape = sparql::ClassifyShape(q.bgp);
  return Status::OK();
}

void QueryEngine::CheckStatic(Lifecycle& q) const {
  if (state_->options.static_check) {
    q.check = Checker().Check(q.query, q.bgp);
    // Degenerate queries (unbound projection / FILTER / ORDER BY variables)
    // must keep failing exactly as the executor would fail them, so a
    // provably-empty verdict also runs the full lint: only clean queries
    // short-circuit.
    if (q.check.provably_empty()) {
      q.lint_errors = analysis::HasErrors(
          analysis::QueryLint(state_->gs, state_->graph.dict())
              .Lint(q.query, q.bgp));
    }
    if (state_->options.infer_constraints && !q.check.inferred.empty()) {
      q.anchors = q.check.InferredAnchors(state_->gs);
    }
    if (q.trace != nullptr) {
      q.trace->static_verdict = analysis::SatisfiabilityName(q.check.verdict);
    }
  }
  // Without a check there is no span to close; planning starts either way.
  q.Phase(state_->options.static_check ? "static-check" : nullptr, "plan");
}

Status QueryEngine::Plan(const Lifecycle& q,
                         const std::vector<double>& corrections,
                         QueryResult* out) const {
  const sparql::EncodedBgp& bgp = q.bgp;
  opt::Plan& plan = out->plan;
  if (state_->estimator == nullptr) {
    plan.provider = "textual";
    plan.order.resize(bgp.patterns.size());
    std::iota(plan.order.begin(), plan.order.end(), 0);
    plan.step_estimates.assign(bgp.patterns.size(), 0);
    // Textual order executes as written; record whether that order forces
    // Cartesian steps so the plan verifier judges it by the same contract
    // as optimized plans.
    for (size_t k = 1; k < plan.order.size() && !plan.has_cartesian; ++k) {
      bool joins = false;
      for (size_t j = 0; j < k && !joins; ++j) {
        joins = sparql::Joinable(bgp.patterns[plan.order[j]],
                                 bgp.patterns[plan.order[k]]);
      }
      plan.has_cartesian = !joins;
    }
  } else {
    obs::PlannerTrace* ptrace =
        q.trace != nullptr ? &q.trace->planner : nullptr;
    // Static-checker-proven class anchors tighten the shape estimates for
    // untyped subject variables (per-query provider view; the shared
    // estimator stays untouched).
    const card::PlannerStatsProvider* provider = state_->estimator.get();
    std::optional<card::AnchoredEstimator> anchored;
    if (!q.anchors.empty()) {
      anchored.emplace(*state_->estimator, q.anchors);
      provider = &*anchored;
    }
    if (!corrections.empty()) {
      // Feedback-learned adjustment factors scale the per-pattern
      // cardinalities (card::CorrectedProvider) — same provider label, so
      // ledger populations stay comparable.
      card::CorrectedProvider corrected(*provider, corrections);
      plan = opt::PlanJoinOrder(bgp, corrected, ptrace);
      plan.correction_factors = corrections;
    } else {
      plan = opt::PlanJoinOrder(bgp, *provider, ptrace);
    }
  }
  if (state_->options.verify_plans) {
    analysis::Diagnostics diags = analysis::PlanVerifier().Verify(plan, bgp);
    if (analysis::HasErrors(diags)) {
      return Status::Internal("plan failed verification:\n" +
                              analysis::ToText(diags));
    }
  }
  phys::PlannerOptions popts;
  popts.mode = state_->options.join_mode;
  out->phys = phys::PlanPhysical(bgp, plan, state_->graph, popts);
  if (state_->options.verify_plans) {
    analysis::Diagnostics diags =
        analysis::PlanVerifier().Verify(out->phys, plan, bgp);
    if (analysis::HasErrors(diags)) {
      return Status::Internal("physical plan failed verification:\n" +
                              analysis::ToText(diags));
    }
  }
  return Status::OK();
}

Result<QueryResult> QueryEngine::PlanFresh(Lifecycle& q) const {
  RETURN_NOT_OK(Parse(q));
  CheckStatic(q);
  if (state_->plan_cache != nullptr) {
    q.tmpl = cache::CanonicalizeTemplate(q.query, q.bgp, state_->gs.rdf_type_id);
  }
  const Corrections corrections = FeedbackCorrections(
      state_->plan_cache.get(), q.tmpl, q.bgp.patterns.size());
  QueryResult planned;
  RETURN_NOT_OK(Plan(q, corrections.instance, &planned));
  return planned;
}

Result<analysis::Diagnostics> QueryEngine::Lint(std::string_view sparql) const {
  Lifecycle q(sparql, nullptr, nullptr, nullptr);
  RETURN_NOT_OK(Parse(q));
  analysis::Diagnostics diags =
      analysis::QueryLint(state_->gs, state_->graph.dict()).Lint(q.bgp);
  obs::EventLog& log = obs::EventLog::Global();
  if (!diags.empty() && log.active()) {
    log.Emit(obs::Event("lint")
                 .Uint("findings", diags.size())
                 .Str("first_rule", diags.front().rule));
  }
  return diags;
}

Result<analysis::ShapeCheckResult> QueryEngine::StaticCheck(
    std::string_view sparql) const {
  Lifecycle q(sparql, nullptr, nullptr, nullptr);
  RETURN_NOT_OK(Parse(q));
  analysis::Diagnostics lint =
      analysis::QueryLint(state_->gs, state_->graph.dict()).Lint(q.query, q.bgp);
  analysis::ShapeCheckResult check = Checker().Check(q.query, q.bgp);
  check.diagnostics.insert(check.diagnostics.begin(), lint.begin(),
                           lint.end());
  return check;
}

void QueryEngine::FillStepTraces(const Lifecycle& q, const QueryResult& planned,
                                 const std::vector<uint64_t>& true_cards,
                                 bool record) const {
  const opt::Plan& plan = planned.plan;
  const std::vector<card::EstimateDetail>& details = q.details;
  obs::QueryTrace* trace = q.trace;
  for (size_t k = 0; k < plan.order.size(); ++k) {
    const uint32_t tp = plan.order[k];
    obs::StepTrace step;
    step.step = static_cast<uint32_t>(k + 1);
    step.pattern = tp;
    step.pattern_text = q.query.patterns[tp].ToString();
    if (k < planned.phys.steps.size()) {
      const phys::PhysicalStep& ps = planned.phys.steps[k];
      step.join_type = phys::OpName(ps.op);
      step.est_build = ps.est_left;
      step.est_probe = ps.est_right;
    }
    if (tp < details.size()) {
      step.source = details[tp].source;
      step.formula = details[tp].formula;
      step.tp_est = details[tp].est.card;
    } else {
      step.source = "textual";
    }
    step.est_card = k < plan.step_estimates.size() ? plan.step_estimates[k] : 0;
    step.true_card = k < true_cards.size() ? true_cards[k] : 0;
    step.q_error = state_->estimator != nullptr
                       ? obs::QError(step.est_card,
                                     static_cast<double>(step.true_card))
                       : std::numeric_limits<double>::quiet_NaN();
    if (k < trace->exec.step_rows_scanned.size()) {
      step.rows_scanned = trace->exec.step_rows_scanned[k];
      step.index_probes = trace->exec.step_probes[k];
    }
    trace->steps.push_back(std::move(step));
  }
  trace->true_total_cost =
      std::accumulate(true_cards.begin(), true_cards.end(), uint64_t{0});
  if (record) state_->ledger.Record(*trace);
  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    for (const obs::StepTrace& s : trace->steps) {
      obs::Event ev("query.step");
      ev.Str("optimizer", trace->optimizer)
          .Str("query_shape", trace->query_shape)
          .Uint("step", s.step)
          .Str("source", s.source)
          .Str("join_type", s.join_type)
          .Num("est_card", s.est_card)
          .Uint("true_card", s.true_card);
      if (!std::isnan(s.q_error)) ev.Num("q_error", s.q_error);
      log.Emit(std::move(ev));
    }
  }
}

Result<QueryResult> QueryEngine::Execute(std::string_view sparql,
                                         obs::QueryTrace* trace) const {
  return ExecuteInternal(sparql, trace, nullptr);
}

Result<QueryResult> QueryEngine::ExecuteInternal(std::string_view sparql,
                                                 obs::QueryTrace* trace,
                                                 const ExecContext* ctx) const {
  obs::EventLog& log = obs::EventLog::Global();
  obs::TraceSpan span("engine", "query");
  Lifecycle q(sparql, trace, state_->registry, ctx);
  RETURN_NOT_OK(Parse(q));
  QueryResult result;
  result.shape = q.shape;
  // Shape classification runs on every query regardless of caching, so it
  // gets its own phase instead of inflating the static-check span.
  q.Phase("analyze", "static-check");
  if (log.active()) {
    log.Emit(obs::Event("query.start")
                 .Str("query_shape", sparql::QueryShapeName(q.shape))
                 .Uint("patterns", q.bgp.patterns.size()));
  }

  // Plan-cache lookup: canonicalize the query into its BGP template and
  // try to reuse the stored verdict + plans. Bypassed (uncacheable)
  // queries and cache-less engines take the uncached path below.
  cache::PlanCache* pcache = state_->plan_cache.get();
  std::shared_ptr<const cache::CachedPlan> cached;
  if (pcache != nullptr) {
    q.tmpl = cache::CanonicalizeTemplate(q.query, q.bgp, state_->gs.rdf_type_id);
    if (q.tmpl.cacheable) {
      cached = pcache->Get(q.tmpl.key);
      q.template_id = cached != nullptr ? cached->short_id : q.tmpl.ShortId();
      q.reg.SetTemplate(q.template_id);
    } else {
      pcache->NoteBypass();
    }
  }

  if (cached != nullptr) {
    // Cache hit: the stored verdict and plans are valid for every instance
    // of the template (estimates and emptiness rules are value-independent
    // given the key's concrete predicates, class constants, and
    // constant-distinctness classes).
    if (trace != nullptr) {
      trace->plan_cached = true;
      trace->cache_template = cached->short_id;
    }
    if (cached->checked) {
      q.check.verdict = cached->verdict;
      q.lint_errors = cached->lint_errors;
      if (trace != nullptr) {
        trace->static_verdict = analysis::SatisfiabilityName(cached->verdict);
      }
      q.Phase("static-check", "plan");
      for (const auto& [canon_var, cls] : cached->inferred) {
        if (canon_var < q.tmpl.var_canon_to_instance.size()) {
          q.anchors[q.tmpl.var_canon_to_instance[canon_var]] = cls;
        }
      }
    }
    if (!q.ShortCircuits()) {
      result.plan = cache::PlanToInstance(cached->plan, q.tmpl);
      result.phys = cache::PhysToInstance(cached->phys, q.tmpl);
    }
  } else {
    // Shape-aware static check: a provably-empty BGP is answered with zero
    // rows below, skipping optimize + execute; a satisfiable one may still
    // contribute inferred class anchors to the estimator.
    CheckStatic(q);
    if (log.active() &&
        (q.check.provably_empty() || !q.check.inferred.empty())) {
      log.Emit(obs::Event("query.static")
                   .Str("verdict", analysis::SatisfiabilityName(q.check.verdict))
                   .Str("rule", q.check.rule)
                   .Uint("findings", q.check.diagnostics.size())
                   .Uint("inferred", q.check.inferred.size()));
    }
    const Corrections corrections =
        FeedbackCorrections(pcache, q.tmpl, q.bgp.patterns.size());
    if (!q.ShortCircuits()) {
      RETURN_NOT_OK(Plan(q, corrections.instance, &result));
    }
    if (q.tmpl.cacheable) {
      // Repeated provably-empty templates short-circuit straight from the
      // cache, skipping even the checker; the physical plan is cached
      // before any ASK/LIMIT pipelining downgrade, applied per instance.
      auto entry = std::make_shared<cache::CachedPlan>();
      entry->template_hash = q.tmpl.hash;
      entry->short_id = q.template_id;
      entry->num_patterns = static_cast<uint32_t>(q.bgp.patterns.size());
      entry->checked = state_->options.static_check;
      entry->verdict = q.check.verdict;
      entry->rule = q.check.rule;
      entry->lint_errors = q.lint_errors;
      for (const auto& [var, cls] : q.anchors) {
        entry->inferred.emplace_back(q.tmpl.var_instance_to_canon[var], cls);
      }
      entry->plan = cache::PlanToCanonical(result.plan, q.tmpl);
      entry->phys = cache::PhysToCanonical(result.phys, q.tmpl);
      entry->feedback_version = corrections.version;
      pcache->Put(q.tmpl.key, std::move(entry));
    }
  }

  // A provably-empty query is answered with zero rows here, skipping
  // optimize + execute; everything else runs its plan.
  phys::ResultTable table;
  const char* outcome = "static-empty";
  if (q.ShortCircuits()) {
    static obs::Counter* short_circuits =
        obs::MetricsRegistry::Global().GetCounter("static_check.short_circuits");
    short_circuits->Add();
    result.plan.provider = "static-empty";
    if (q.query.select_all) {
      table.var_names = q.bgp.var_names;
    } else {
      for (const sparql::Variable& v : q.query.projection) {
        table.var_names.push_back(v.name);
      }
    }
    q.Planned(result.plan);
  } else {
    phys::ExecOptions eopts = state_->options.exec;
    // Physical operator selection rides inside the "plan" phase. ASK and
    // LIMIT queries get all-INLJ plans, which stream, so early termination
    // skips the work a merge or hash would do up front; the downgrade is
    // recorded per step.
    if (q.query.is_ask || q.query.limit.has_value()) {
      phys::ForceInlj(&result.phys, "pipelined: ASK/LIMIT early termination");
    }
    result.plan_ms = q.total.ElapsedMs();
    q.Phase("plan", "execute");
    q.Planned(result.plan);
    if (trace != nullptr) eopts.trace = &trace->exec;
    if (log.active()) {
      obs::Event ev("query.plan");
      ev.Str("optimizer", result.plan.provider)
          .Num("est_cost", result.plan.total_cost)
          .Bool("cartesian", result.plan.has_cartesian)
          .Str("order", JoinOrder(result.plan.order));
      log.Emit(std::move(ev));
    }
    span.Arg("optimizer", result.plan.provider);
    span.Arg("shape", sparql::QueryShapeName(q.shape));
    q.reg.SetStepsTotal(result.plan.order.size());
    eopts.resources = q.tracker;

    // Per-pattern estimate provenance, needed to annotate step traces and
    // feed the accuracy ledger. Only computed for traced executions.
    if (trace != nullptr && state_->estimator != nullptr) {
      q.details = state_->estimator->EstimateAllDetailed(q.bgp, &q.anchors);
      q.Phase("estimate");
    }

    ASSIGN_OR_RETURN(table, phys::ExecuteQuery(state_->graph, q.query, q.bgp,
                                               result.phys, eopts));
    q.Phase("execute");
    q.timed_out = table.timed_out;
    q.cancelled = table.cancelled;
    outcome = q.cancelled ? "cancelled" : (q.timed_out ? "timeout" : "ok");
    // Final resource snapshot: per-query distribution histograms for the
    // Prometheus plane, the trace's resources block, the registry's
    // completed record and flight bundles all read the same numbers.
    if (q.tracker != nullptr) {
      obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
      static obs::Histogram* const hists[] = {
          metrics.GetHistogram("exec.query_index_probes"),
          metrics.GetHistogram("exec.query_rows_scanned"),
          metrics.GetHistogram("exec.query_rows_materialized"),
          metrics.GetHistogram("exec.query_peak_bytes"),
          metrics.GetHistogram("exec.query_build_bytes")};
      const obs::ResourceSnapshot& snap =
          q.resources.emplace(q.tracker->Snapshot());
      const uint64_t values[] = {snap.index_probes, snap.rows_scanned,
                                 snap.rows_materialized, snap.peak_bytes,
                                 snap.build_bytes};
      for (size_t i = 0; i < std::size(hists); ++i) {
        hists[i]->Observe(static_cast<double>(values[i]));
      }
      if (trace != nullptr) {
        trace->resources = snap;
        trace->has_resources = true;
      }
    }
  }
  uint64_t num_results = table.rows.size();
  if (q.query.is_ask || q.query.count_aggregate) {
    if (q.query.is_ask) {
      result.ask = num_results > 0;
    } else {
      // COUNT(*) counts solutions (bag semantics).
      result.count = num_results = table.bgp_matches;
    }
    // The answer is a boolean or a count; the table still reports whether
    // execution was cut short.
    result.table.timed_out = table.timed_out;
    result.table.cancelled = table.cancelled;
  } else {
    result.table = std::move(table);
  }
  Finish(q, result, outcome, num_results);
  // A short-circuited query is answered at plan time.
  if (q.ShortCircuits()) result.plan_ms = result.total_ms;
  return result;
}

void QueryEngine::Finish(Lifecycle& q, QueryResult& result,
                         const char* outcome, uint64_t num_results) const {
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("engine.queries");
  static obs::Histogram* query_ms =
      obs::MetricsRegistry::Global().GetHistogram("engine.query_ms");
  result.total_ms = q.total.ElapsedMs();
  queries->Add();
  query_ms->Observe(result.total_ms);
  obs::QueryTrace* trace = q.trace;
  if (trace != nullptr) {
    trace->num_results = num_results;
    trace->timed_out = q.timed_out;
    trace->cancelled = q.cancelled;
    trace->total_ms = result.total_ms;
    // ASK probes (LIMIT 1) and explicit LIMIT / timeout runs truncate
    // execution, so their per-step counts are not true cardinalities —
    // they get step annotations but stay out of the accuracy ledger. A
    // short-circuited query has no steps at all.
    const std::vector<uint64_t>& truth = trace->exec.step_rows_produced;
    const bool exact = !q.query.is_ask && !q.query.limit.has_value() &&
                       !q.timed_out && !truth.empty();
    FillStepTraces(q, result, truth, exact);
    // Close the feedback loop: exact per-step truths become learned
    // adjustment factors for this template. A publication bumps the
    // template's feedback version, so its cached plan re-plans (under the
    // corrected estimates) on the next lookup.
    if (exact && q.tmpl.cacheable && state_->estimator != nullptr) {
      state_->plan_cache->RecordFeedback(
          q.tmpl.hash, FeedbackSamples(q.tmpl, result.plan, truth));
    }
  }
  q.reg.Complete(outcome, num_results);
  // Flight-recorder anomaly triggers: cancellation, latency over the slow
  // threshold, or a per-step q-error over the threshold (traced runs only —
  // untraced runs have no step annotations to judge).
  if (obs::FlightRecorder* fr = state_->flight; fr != nullptr) {
    const char* trigger = nullptr;
    if (q.cancelled) {
      trigger = "cancelled";
    } else if (fr->slow_ms() >= 0 && result.total_ms >= fr->slow_ms()) {
      trigger = "slow";
    } else if (fr->max_q_error() > 0 && trace != nullptr) {
      for (const obs::StepTrace& s : trace->steps) {
        if (!std::isnan(s.q_error) && s.q_error > fr->max_q_error()) {
          trigger = "qerror";
          break;
        }
      }
    }
    if (trigger != nullptr) {
      fr->Record(trigger, FlightBundle(trigger, outcome, q, result, num_results));
    }
  }
  obs::EventLog& log = obs::EventLog::Global();
  if (log.active()) {
    log.Emit(obs::Event("query.finish")
                 .Str("optimizer", result.plan.provider)
                 .Str("query_shape", sparql::QueryShapeName(q.shape))
                 .Uint("results", num_results)
                 .Bool("timed_out", q.timed_out)
                 .Num("ms", result.total_ms));
  }
}

std::string QueryEngine::FlightBundle(const char* trigger, const char* outcome,
                                      const Lifecycle& q,
                                      const QueryResult& result,
                                      uint64_t num_results) const {
  const opt::Plan& plan = result.plan;
  std::string out = "{\"trigger\":\"" + std::string(trigger) + "\"";
  out += ",\"outcome\":\"" + std::string(outcome) + "\"";
  if (q.ctx.request_id != 0) {
    out += ",\"request_id\":" + std::to_string(q.ctx.request_id);
  }
  if (q.ctx.batch_id != 0) {
    out += ",\"batch_id\":" + std::to_string(q.ctx.batch_id) +
           ",\"slot\":" + std::to_string(q.ctx.slot);
  }
  out += ",\"query\":\"" + obs::JsonEscape(std::string(q.sparql)) + "\"";
  out += ",\"total_ms\":" + FmtNum(result.total_ms);
  out += ",\"num_results\":" + std::to_string(num_results);
  out += ",\"plan\":{\"provider\":\"" + obs::JsonEscape(plan.provider) +
         "\",\"est_cost\":" + FmtNum(plan.total_cost) + ",\"order\":[" +
         JoinOrder(plan.order) + "]}";
  if (!result.phys.steps.empty()) {
    out += ",\"phys\":{\"summary\":\"" + obs::JsonEscape(result.phys.Summary()) +
           "\",\"steps\":[";
    for (size_t i = 0; i < result.phys.steps.size(); ++i) {
      const phys::PhysicalStep& ps = result.phys.steps[i];
      if (i) out += ",";
      out += "{\"op\":\"" + std::string(phys::OpName(ps.op)) +
             "\",\"est_build\":" + FmtNum(ps.est_left) +
             ",\"est_probe\":" + FmtNum(ps.est_right) + ",\"rationale\":\"" +
             obs::JsonEscape(ps.rationale) + "\"}";
    }
    out += "]}";
  }
  if (q.trace != nullptr) out += ",\"trace\":" + q.trace->ToJson();
  if (q.resources.has_value()) out += ",\"resources\":" + q.resources->ToJson();
  out += ",\"cache\":{\"template\":\"" + obs::JsonEscape(q.template_id) + "\"";
  if (const cache::PlanCache* pcache = state_->plan_cache.get();
      pcache != nullptr) {
    const cache::PlanCache::StatsSnapshot cs = pcache->stats();
    out += ",\"hits\":" + std::to_string(cs.hits) +
           ",\"misses\":" + std::to_string(cs.misses) +
           ",\"size\":" + std::to_string(cs.size) +
           ",\"corrections\":" + std::to_string(cs.corrections) +
           ",\"hit_rate\":" + FmtNum(cs.hit_rate);
  }
  if (!plan.correction_factors.empty()) {
    out += ",\"correction_factors\":[";
    for (size_t i = 0; i < plan.correction_factors.size(); ++i) {
      if (i) out += ",";
      out += FmtNum(plan.correction_factors[i]);
    }
    out += "]";
  }
  out += "},\"build\":" + obs::BuildInfoJson() + "}";
  return out;
}

BatchResult QueryEngine::ExecuteBatch(const std::vector<std::string>& queries,
                                      const BatchOptions& options) const {
  static obs::Counter* batches =
      obs::MetricsRegistry::Global().GetCounter("engine.batches");
  static obs::Counter* batch_queries =
      obs::MetricsRegistry::Global().GetCounter("engine.batch_queries");
  static obs::Histogram* batch_ms =
      obs::MetricsRegistry::Global().GetHistogram("engine.batch_ms");
  util::ThreadPool& pool =
      options.pool != nullptr
          ? *options.pool
          : (state_->options.pool != nullptr ? *state_->options.pool
                                             : util::ThreadPool::Shared());
  // Process-unique id correlating this batch's events with its result slots.
  static std::atomic<uint64_t> next_batch_id{1};
  obs::EventLog& log = obs::EventLog::Global();
  BatchResult batch;
  batch.batch_id = next_batch_id.fetch_add(1, std::memory_order_relaxed);
  batch.results.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    batch.results.emplace_back(Status::Internal("query not executed"));
  }
  if (options.collect_traces) batch.traces.resize(queries.size());

  obs::TraceSpan span("engine", "batch");
  span.Arg("queries", std::to_string(queries.size()));
  span.Arg("pool", pool.label());
  if (log.active()) {
    obs::Event ev("batch.start");
    ev.Uint("batch_id", batch.batch_id)
        .Uint("queries", queries.size())
        .Str("pool", pool.label())
        .Uint("threads", pool.num_threads());
    if (options.request_id != 0) ev.Uint("request_id", options.request_id);
    log.Emit(std::move(ev));
  }
  Timer timer;
  // Queries only read the finalized graph and the immutable statistics (the
  // estimator's shape cache is internally synchronized), so they fan out
  // directly; every query writes only its own slot, which makes the batch
  // output independent of scheduling.
  pool.ParallelFor(0, queries.size(), [&](size_t i) {
    obs::QueryTrace* trace =
        options.collect_traces ? &batch.traces[i] : nullptr;
    const ExecContext ctx{options.request_id, batch.batch_id,
                          static_cast<uint32_t>(i)};
    batch.results[i] = ExecuteInternal(queries[i], trace, &ctx);
    if (log.active()) {
      const Result<QueryResult>& r = batch.results[i];
      obs::Event ev("batch.query");
      ev.Uint("batch_id", batch.batch_id).Uint("slot", i).Bool("ok", r.ok());
      if (options.request_id != 0) ev.Uint("request_id", options.request_id);
      if (r.ok()) {
        uint64_t results = r->count ? *r->count
                           : r->ask ? static_cast<uint64_t>(*r->ask)
                                    : r->table.rows.size();
        ev.Uint("results", results)
            .Bool("timed_out", r->table.timed_out)
            .Num("ms", r->total_ms);
      } else {
        ev.Str("error", r.status().ToString());
      }
      log.Emit(std::move(ev));
    }
  });
  batch.wall_ms = timer.ElapsedMs();
  size_t failures = 0;
  for (const Result<QueryResult>& r : batch.results) {
    if (r.ok()) {
      batch.sum_query_ms += r->total_ms;
    } else {
      ++failures;
    }
  }
  batches->Add();
  batch_queries->Add(queries.size());
  batch_ms->Observe(batch.wall_ms);
  obs::PublishPoolMetrics(pool);
  if (log.active()) {
    util::ThreadPool::StatsSnapshot stats = pool.stats();
    obs::Event ev("batch.finish");
    ev.Uint("batch_id", batch.batch_id)
        .Uint("queries", queries.size())
        .Uint("failures", failures)
        .Num("wall_ms", batch.wall_ms)
        .Num("sum_query_ms", batch.sum_query_ms);
    if (options.request_id != 0) ev.Uint("request_id", options.request_id);
    log.Emit(std::move(ev));
    log.Emit(obs::Event("pool")
                 .Str("label", pool.label())
                 .Uint("threads", stats.num_threads)
                 .Uint("tasks_executed", stats.tasks_executed)
                 .Uint("peak_queue_depth", stats.peak_queue_depth));
  }
  return batch;
}

Result<std::string> QueryEngine::Explain(std::string_view sparql) const {
  Lifecycle q(sparql, nullptr, nullptr, nullptr);
  ASSIGN_OR_RETURN(const QueryResult planned, PlanFresh(q));
  const opt::Plan& plan = planned.plan;
  const phys::PhysicalPlan& pplan = planned.phys;
  // With the plan cache enabled, EXPLAIN also reports the query's template,
  // whether it is currently cached, and the feedback corrections the plan
  // was made under.
  const cache::PlanCache* pcache = state_->plan_cache.get();
  const std::vector<double>& corrections = plan.correction_factors;

  std::string out = "plan (" + plan.provider + " optimizer, query shape: " +
                    sparql::QueryShapeName(q.shape) + ")\n";
  if (pcache != nullptr) {
    if (!q.tmpl.cacheable) {
      out += "plan cache: bypass (" + q.tmpl.bypass_reason + ")\n";
    } else if (auto entry = pcache->Peek(q.tmpl.key); entry != nullptr) {
      out += "plan: cached (" + entry->short_id + ")\n";
    } else {
      out += "plan: not cached (template " + q.tmpl.ShortId() + ")\n";
    }
  }
  if (!corrections.empty()) {
    out += "est: corrected (feedback factors:";
    char buf[48];
    for (size_t i = 0; i < corrections.size(); ++i) {
      if (corrections[i] == 1.0) continue;
      std::snprintf(buf, sizeof(buf), " tp%zu x%.3g", i, corrections[i]);
      out += buf;
    }
    out += ")\n";
  }
  if (!pplan.steps.empty()) {
    out += "join mode: " + std::string(phys::JoinModeName(pplan.mode)) +
           " -> " + pplan.Summary() + "\n";
  }
  if (state_->options.static_check) {
    out += "static check: " + std::string(analysis::SatisfiabilityName(
                                  q.check.verdict));
    if (q.check.provably_empty()) {
      out += " (" + q.check.rule + "; the query returns zero rows without "
             "executing this plan)";
    } else if (!q.check.inferred.empty()) {
      out += " (" + std::to_string(q.check.inferred.size()) +
             " inferred class anchor(s) feed the estimates below)";
    }
    out += "\n";
  }
  for (size_t step = 0; step < plan.order.size(); ++step) {
    uint32_t tp = plan.order[step];
    out += "  " + std::to_string(step + 1) + ". " +
           q.query.patterns[tp].ToString();
    if (!plan.tp_estimates.empty()) {
      out += "   [tp card ~" +
             WithCommas(static_cast<uint64_t>(plan.tp_estimates[tp].card)) +
             ", step est ~" +
             WithCommas(static_cast<uint64_t>(plan.step_estimates[step])) + "]";
    }
    out += "\n";
    if (step < pplan.steps.size()) {
      const phys::PhysicalStep& ps = pplan.steps[step];
      out += "       op: " + std::string(phys::OpName(ps.op));
      if (ps.op == phys::OpKind::kHash) {
        out += std::string("(build=") + (ps.build_right ? "right" : "left") +
               ")";
      } else if (ps.op == phys::OpKind::kMerge && !ps.left_presorted) {
        out += "(sort-left)";
      }
      if (step > 0 && ps.join_pos >= 0) {
        out += "  [build ~" +
               WithCommas(static_cast<uint64_t>(ps.est_left)) + ", probe ~" +
               WithCommas(static_cast<uint64_t>(ps.est_right)) + "]";
      }
      if (!ps.rationale.empty()) out += "; " + ps.rationale;
      out += "\n";
    }
  }
  if (!q.query.filters.empty()) {
    out += "  + " + std::to_string(q.query.filters.size()) +
           " filter(s), applied at the earliest step where bound\n";
  }
  if (plan.total_cost > 0) {
    out += "estimated cost: " +
           WithCommas(static_cast<uint64_t>(plan.total_cost)) + "\n";
  }
  out += analysis::ToText(analysis::QueryLint(state_->gs, state_->graph.dict())
                              .Lint(q.query, q.bgp)) +
         analysis::ToText(q.check.diagnostics);
  return out;
}

Result<AnalyzeResult> QueryEngine::ExplainAnalyze(std::string_view sparql) const {
  static obs::Counter* analyzes =
      obs::MetricsRegistry::Global().GetCounter("engine.explain_analyze");
  AnalyzeResult out;
  obs::QueryTrace& trace = out.trace;
  // No registry record: the lifecycle's local resource tracker feeds the
  // trace's resources block (EXPLAIN ANALYZE always reports resource
  // totals, registry or not).
  Lifecycle q(sparql, &trace, nullptr, nullptr);
  // EXPLAIN ANALYZE executes in full even for provably-empty verdicts — the
  // profiling run doubles as a live soundness check of the static analyzer.
  ASSIGN_OR_RETURN(QueryResult planned, PlanFresh(q));
  q.Phase("plan");
  q.Planned(planned.plan);

  // Per-pattern estimate provenance (which statistics source / Table-1
  // formula produced each TP estimate), for the step annotations.
  if (state_->estimator != nullptr) {
    q.details = state_->estimator->EstimateAllDetailed(q.bgp, &q.anchors);
  }
  q.Phase("estimate");

  // Execute into the BGP count sink: true per-step cardinalities (the
  // paper's TZ Card ground truth) plus probe/scan counters.
  phys::ExecOptions eopts = state_->options.exec;
  eopts.trace = &trace.exec;
  eopts.resources = q.tracker;
  ASSIGN_OR_RETURN(phys::ExecResult run,
                   phys::ExecuteBgp(state_->graph, q.bgp, planned.phys, eopts));
  q.Phase("execute");
  trace.num_results = run.num_results;
  trace.timed_out = run.timed_out;
  trace.cancelled = run.cancelled;
  trace.resources = q.resources.emplace(q.tracker->Snapshot());
  trace.has_resources = true;
  FillStepTraces(q, planned, run.step_cards, /*record=*/!run.timed_out);
  trace.total_ms = planned.total_ms = q.total.ElapsedMs();

  // Live soundness cross-check: a provably-empty verdict that observed any
  // result is an analyzer bug (counted, never silently ignored — and
  // captured as a flight-recorder bundle when the recorder is active).
  if (q.check.provably_empty() && run.num_results > 0) {
    static obs::Counter* violations =
        obs::MetricsRegistry::Global().GetCounter("static_check.violations");
    violations->Add();
    obs::EventLog& log = obs::EventLog::Global();
    if (log.active()) {
      log.Emit(obs::Event("static_check.violation")
                   .Str("rule", q.check.rule)
                   .Uint("results", run.num_results));
    }
    if (state_->flight != nullptr) {
      state_->flight->Record("static-violation",
                             FlightBundle("static-violation", "ok", q, planned,
                                          run.num_results));
    }
  }

  analyzes->Add();
  // Lint and checker findings ride along so .analyze shows why a query was
  // empty or needed a Cartesian product.
  out.text = trace.ToTable() +
             analysis::ToText(analysis::QueryLint(state_->gs, state_->graph.dict())
                                  .Lint(q.query, q.bgp)) +
             analysis::ToText(q.check.diagnostics);
  out.json = trace.ToJson();
  return out;
}

}  // namespace shapestats::engine
