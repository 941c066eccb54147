#include "phys/phys_executor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/filter_eval.h"
#include "obs/metrics.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace shapestats::phys {

using rdf::OptId;
using rdf::TermId;
using rdf::Triple;
using sparql::EncodedBgp;
using sparql::EncodedPattern;
using sparql::EncodedTerm;
using sparql::ParsedQuery;

uint64_t ExecResult::TrueCost() const {
  return std::accumulate(step_cards.begin(), step_cards.end(), uint64_t{0});
}

std::string ResultTable::ToString(const rdf::TermDictionary& dict,
                                  size_t max_rows) const {
  std::vector<std::string> header;
  for (const std::string& v : var_names) header.push_back("?" + v);
  TablePrinter printer(header);
  size_t shown = 0;
  for (const auto& row : rows) {
    if (shown++ >= max_rows) break;
    std::vector<std::string> cells;
    for (TermId t : row) cells.push_back(dict.Pretty(t));
    printer.AddRow(cells);
  }
  std::string out = printer.Render();
  if (rows.size() > max_rows) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

namespace {

// Timeout checks happen every this many work units (index probes + scanned
// triples), so even plans producing zero rows hit the wall-clock check.
constexpr uint32_t kTimeoutCheckInterval = 1024;

TermId Comp(const Triple& t, int pos) {
  return pos == 0 ? t.s : (pos == 1 ? t.p : t.o);
}

OptId ConstOpt(const EncodedTerm& e) {
  if (e.is_bound()) return e.id;
  return std::nullopt;
}

bool HasVar(const EncodedPattern& tp, sparql::VarId v) {
  for (const EncodedTerm* e : {&tp.s, &tp.p, &tp.o}) {
    if (e->is_var() && e->id == v) return true;
  }
  return false;
}

// One (left row, matching triple) pair of a merge/hash step, held until the
// canonical-order sort restores the depth-first emission order.
struct MatchPair {
  uint32_t left;
  Triple t;
};

// The sorted contiguous index run backing the right side of a merge join on
// component `join_pos`, selected from the pattern's constants alone (see
// MergeRunAvailable). Prefix-bound variables in other positions are checked
// per emitted pair, not folded into the run.
std::span<const Triple> MergeRightSpan(const rdf::Graph& g,
                                       const EncodedPattern& tp,
                                       int join_pos) {
  if (join_pos == 0) {
    if (tp.p.is_bound() && tp.o.is_bound()) {
      return g.Match(std::nullopt, tp.p.id, tp.o.id);  // POS run, by subject
    }
    if (tp.p.is_bound()) return g.PredicateBySubject(tp.p.id);  // PSO
    if (tp.o.is_bound()) {
      return g.Match(std::nullopt, std::nullopt, tp.o.id);  // OSP, by subject
    }
    return g.triples();  // SPO
  }
  // join_pos == 2 (object).
  if (tp.s.is_bound() && tp.p.is_bound()) {
    return g.Match(tp.s.id, tp.p.id, std::nullopt);  // SPO run, by object
  }
  if (tp.p.is_bound()) {
    return g.Match(std::nullopt, tp.p.id, std::nullopt);  // POS, by object
  }
  return g.triples_by_object();  // OSP
}

enum class Sink : uint8_t {
  kBgp,    // per-step cardinalities only (no filters)
  kCount,  // COUNT(*): filtered matches
  kRows,   // projected rows + modifiers
};

class Executor {
 public:
  // Binding tables and match-pair staging are allocated through a
  // CountingAllocator charging the query's MemoryAccount, so build bytes and
  // the peak per-query footprint are measured where they are spent. A null
  // account makes the allocator a passthrough.
  template <typename T>
  using Counted = std::vector<T, obs::CountingAllocator<T>>;

  Executor(const rdf::Graph& graph, const ParsedQuery* query,
           const EncodedBgp& bgp, const PhysicalPlan& pplan,
           const ExecOptions& options, Sink sink)
      : graph_(graph),
        query_(query),
        bgp_(bgp),
        pplan_(pplan),
        options_(options),
        sink_(sink),
        trace_(options.trace),
        resources_(options.resources),
        account_(options.resources != nullptr ? &options.resources->memory()
                                              : nullptr),
        width_(bgp.NumVars()),
        bindings_(width_, rdf::kInvalidTermId),
        produced_(pplan.steps.size(), 0),
        in_(obs::CountingAllocator<TermId>(account_)),
        out_(obs::CountingAllocator<TermId>(account_)) {
    order_.reserve(pplan.steps.size());
    for (const PhysicalStep& st : pplan.steps) order_.push_back(st.pattern);
    if (trace_ != nullptr) {
      trace_->step_probes.assign(order_.size(), 0);
      trace_->step_rows_scanned.assign(order_.size(), 0);
      trace_->step_rows_produced.assign(order_.size(), 0);
      trace_->total_probes = 0;
      trace_->total_rows_scanned = 0;
    }
  }

  ExecResult RunBgp() {
    filters_.by_depth.resize(order_.size());  // no filters
    Run();
    ExecResult res;
    res.num_results = produced_.empty() ? 0 : produced_.back();
    res.step_cards = std::move(produced_);
    res.timed_out = timed_out_;
    res.cancelled = cancelled_;
    res.elapsed_ms = timer_.ElapsedMs();
    Finish();
    return res;
  }

  Result<ResultTable> RunQuery() {
    if (sink_ == Sink::kRows) {
      ASSIGN_OR_RETURN(shape_, exec::PrepareSelectShape(*query_, bgp_));
      table_.var_names = std::move(shape_.var_names);
      // An ASK needs one solution; LIMIT pushdown needs the full result
      // when ORDER BY or DISTINCT decides which rows survive.
      limit_ = query_->is_ask ? std::optional<uint64_t>(1) : query_->limit;
      if (limit_ && !query_->order_by && !query_->distinct) {
        stop_at_ = query_->offset > kNoStop - *limit_
                       ? kNoStop
                       : query_->offset + *limit_;
      }
    }
    ASSIGN_OR_RETURN(filters_, exec::EncodeFilters(*query_, bgp_, order_));
    if (!filters_.unsatisfiable) Run();
    table_.bgp_matches = matches_;
    if (sink_ == Sink::kRows) {
      RETURN_NOT_OK(exec::ApplyModifiers(*query_, limit_, graph_.dict(),
                                         &table_.rows, &order_keys_));
    }
    table_.timed_out = timed_out_;
    table_.cancelled = cancelled_;
    table_.elapsed_ms = timer_.ElapsedMs();
    Finish();
    return std::move(table_);
  }

 private:
  static constexpr uint64_t kNoStop = std::numeric_limits<uint64_t>::max();

  // A variable bound by the current pattern's triple (repeated variables
  // within one pattern resolve against earlier components first).
  struct LocalBind {
    sparql::VarId var;
    TermId value;
  };

  // ---- segments ----------------------------------------------------------

  // Runs the first segment depth-first from an empty row, then each
  // pipeline breaker over the table the segment before it built.
  void Run() {
    if (order_.empty()) return;
    seg_end_ = NextBreaker(1);
    Recurse(0);
    while (seg_end_ < order_.size() && !timed_out_ && out_count_ > 0) {
      const size_t k = seg_end_;
      in_.swap(out_);
      in_count_ = out_count_;
      out_.clear();
      out_count_ = 0;
      seg_end_ = NextBreaker(k + 1);
      const PhysicalStep& st = pplan_.steps[k];
      const EncodedPattern& tp = bgp_.patterns[st.pattern];
      if (tp.HasMissingConstant()) return;
      if (st.op == OpKind::kMerge) {
        MergeStep(k, st, tp);
      } else {
        HashStep(k, st, tp);
      }
    }
  }

  // True when step k runs as a merge or hash over a binding table. A
  // malformed join (predicate merge, join variable out of range or not yet
  // bound) runs as an index nested-loop step instead: the verifier reports
  // it, and execution stays correct.
  bool IsBreaker(size_t k) const {
    const PhysicalStep& st = pplan_.steps[k];
    if (st.op != OpKind::kMerge && st.op != OpKind::kHash) return false;
    if (st.join_pos < 0 || st.join_var >= width_) return false;
    if (st.op == OpKind::kMerge && st.join_pos != 0 && st.join_pos != 2) {
      return false;
    }
    for (size_t i = 0; i < k; ++i) {
      if (HasVar(bgp_.patterns[order_[i]], st.join_var)) return true;
    }
    return false;
  }

  size_t NextBreaker(size_t from) const {
    size_t k = from;
    while (k < order_.size() && !IsBreaker(k)) ++k;
    return k;
  }

  // Substitutes current bindings into pattern position `t`; returns the
  // bound id, nullopt for a free position, and sets `var_out` when the
  // position is a variable that is still unbound (to be bound by matches).
  OptId Resolve(const EncodedTerm& t, std::optional<sparql::VarId>* var_out) {
    if (t.is_bound()) return t.id;
    if (t.is_missing()) return std::nullopt;  // handled by caller: no match
    const TermId bound = bindings_[t.id];
    if (bound != rdf::kInvalidTermId) return bound;
    *var_out = t.id;
    return std::nullopt;
  }

  // Index nested-loop evaluation of steps depth..seg_end_-1: one
  // Graph::Match probe per incoming row, each match passed on in index
  // order — the canonical depth-first row order.
  void Recurse(size_t depth) {
    const EncodedPattern& tp = bgp_.patterns[order_[depth]];
    if (tp.HasMissingConstant()) return;

    std::optional<sparql::VarId> vs, vp, vo;
    const OptId s = Resolve(tp.s, &vs);
    const OptId p = Resolve(tp.p, &vp);
    const OptId o = Resolve(tp.o, &vo);

    ++probes_;
    if (trace_ != nullptr) ++trace_->step_probes[depth];
    if (Tick(depth)) return;

    for (const Triple& t : graph_.Match(s, p, o)) {
      ++scanned_;
      if (trace_ != nullptr) ++trace_->step_rows_scanned[depth];
      if (Tick(depth)) break;
      // A variable repeated inside one pattern must match equal terms.
      if (vs && vp && *vs == *vp && t.s != t.p) continue;
      if (vs && vo && *vs == *vo && t.s != t.o) continue;
      if (vp && vo && *vp == *vo && t.p != t.o) continue;

      if (vs) bindings_[*vs] = t.s;
      if (vp) bindings_[*vp] = t.p;
      if (vo) bindings_[*vo] = t.o;

      CountProduced(depth);
      if (timed_out_) break;
      Continue(depth);
      if (Halted()) break;
    }
    if (vs) bindings_[*vs] = rdf::kInvalidTermId;
    if (vp) bindings_[*vp] = rdf::kInvalidTermId;
    if (vo) bindings_[*vo] = rdf::kInvalidTermId;
  }

  // Passes the bindings (complete through step k) on: the filters ready at
  // k, then the rest of the segment, or the segment's end.
  void Continue(size_t k) {
    if (!filters_.by_depth[k].empty() &&
        !exec::FiltersPass(filters_.by_depth[k], bindings_.data(),
                           graph_.dict())) {
      return;
    }
    if (k + 1 < seg_end_) {
      Recurse(k + 1);
    } else if (seg_end_ < order_.size()) {
      // Feeds the next pipeline breaker.
      out_.insert(out_.end(), bindings_.begin(), bindings_.end());
      ++out_count_;
      ++appended_rows_;
    } else {
      Deliver();
    }
  }

  // The sink: one complete, filtered solution in `bindings_`.
  void Deliver() {
    if (sink_ == Sink::kBgp) return;  // counted in produced_
    ++matches_;
    if (sink_ == Sink::kCount) return;
    std::vector<TermId> row(shape_.projection.size());
    for (size_t c = 0; c < shape_.projection.size(); ++c) {
      row[c] = bindings_[shape_.projection[c]];
    }
    if (shape_.order_var) order_keys_.push_back(bindings_[*shape_.order_var]);
    table_.rows.push_back(std::move(row));
  }

  // True when enough rows exist for the LIMIT (or ASK) to be answered.
  bool StopEarly() const { return table_.rows.size() >= stop_at_; }

  bool Halted() const { return timed_out_ || StopEarly(); }

  // ---- pipeline breakers -------------------------------------------------

  void MergeStep(size_t k, const PhysicalStep& st, const EncodedPattern& tp) {
    const int jp = st.join_pos;
    const sparql::VarId jv = st.join_var;
    bool sorted = true;
    for (size_t i = 1; i < in_count_; ++i) {
      if (in_[(i - 1) * width_ + jv] > in_[i * width_ + jv]) {
        sorted = false;
        break;
      }
    }

    const std::span<const Triple> run = MergeRightSpan(graph_, tp, jp);
    ++probes_;
    if (trace_ != nullptr) ++trace_->step_probes[k];
    if (Tick(k)) return;

    // Iterate left rows in ascending join-value order; ties keep row order.
    Counted<uint32_t> idx{obs::CountingAllocator<uint32_t>(account_)};
    if (!sorted) {
      idx.resize(in_count_);
      std::iota(idx.begin(), idx.end(), 0u);
      std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
        const TermId va = in_[size_t(a) * width_ + jv];
        const TermId vb = in_[size_t(b) * width_ + jv];
        if (va != vb) return va < vb;
        return a < b;
      });
    }

    const Triple* base = run.data();
    const size_t n = run.size();
    Counted<MatchPair> pairs{obs::CountingAllocator<MatchPair>(account_)};
    size_t lo = 0, hi = 0;
    TermId cur = rdf::kInvalidTermId;
    bool have_group = false;
    for (size_t r = 0; r < in_count_; ++r) {
      const size_t i = sorted ? r : idx[r];
      const TermId v = in_[i * width_ + jv];
      if (!have_group || v != cur) {
        lo = hi;
        while (lo < n && Comp(base[lo], jp) < v) {
          ++lo;
          ++scanned_;
          if (trace_ != nullptr) ++trace_->step_rows_scanned[k];
          if (Tick(k)) return;
        }
        hi = lo;
        while (hi < n && Comp(base[hi], jp) == v) ++hi;
        cur = v;
        have_group = true;
      }
      for (size_t j = lo; j < hi; ++j) {
        ++scanned_;
        if (trace_ != nullptr) ++trace_->step_rows_scanned[k];
        if (Tick(k)) return;
        if (sorted) {
          // Presorted left + sorted run: emission order IS the canonical
          // depth-first order (DESIGN.md §9), so pass matches on directly.
          Emit(k, i, tp, base[j]);
          if (Halted()) return;
        } else if (ProduceCheck(k, i, tp, base[j])) {
          if (timed_out_) return;
          pairs.push_back({static_cast<uint32_t>(i), base[j]});
        }
      }
    }
    if (!sorted) NormalizeAndCommit(k, tp, &pairs);
  }

  void HashStep(size_t k, const PhysicalStep& st, const EncodedPattern& tp) {
    const int jp = st.join_pos;
    const sparql::VarId jv = st.join_var;
    ++probes_;
    if (trace_ != nullptr) ++trace_->step_probes[k];
    if (Tick(k)) return;
    const std::span<const Triple> span =
        graph_.Match(ConstOpt(tp.s), ConstOpt(tp.p), ConstOpt(tp.o));

    // Buckets hold indexes in insertion order (span order / row order), so
    // the pair set — and after the canonical sort, the output — is fully
    // deterministic regardless of hash-table iteration order.
    //
    // The hash tables are charged as a per-entry estimate (key + bucket
    // vector header + node pointer + one index slot) scoped to the build:
    // std::unordered_map has no allocator hook comparable to the binding
    // tables', and the estimate keeps build-side bytes visible in the
    // account at the moment they matter — during the join.
    constexpr size_t kHtEntryBytes = sizeof(TermId) +
                                     sizeof(std::vector<uint32_t>) +
                                     sizeof(void*) + sizeof(uint32_t);
    Counted<MatchPair> pairs{obs::CountingAllocator<MatchPair>(account_)};
    if (st.build_right) {
      obs::ScopedCharge ht_charge(account_, span.size() * kHtEntryBytes);
      std::unordered_map<TermId, std::vector<uint32_t>> ht;
      ht.reserve(span.size());
      for (size_t j = 0; j < span.size(); ++j) {
        ++scanned_;
        if (trace_ != nullptr) ++trace_->step_rows_scanned[k];
        if (Tick(k)) return;
        ht[Comp(span[j], jp)].push_back(static_cast<uint32_t>(j));
      }
      for (size_t i = 0; i < in_count_; ++i) {
        if (Tick(k)) return;
        auto it = ht.find(in_[i * width_ + jv]);
        if (it == ht.end()) continue;
        for (uint32_t j : it->second) {
          ++scanned_;
          if (trace_ != nullptr) ++trace_->step_rows_scanned[k];
          if (Tick(k)) return;
          if (ProduceCheck(k, i, tp, span[j])) {
            if (timed_out_) return;
            pairs.push_back({static_cast<uint32_t>(i), span[j]});
          }
        }
      }
    } else {
      obs::ScopedCharge ht_charge(account_, in_count_ * kHtEntryBytes);
      std::unordered_map<TermId, std::vector<uint32_t>> ht;
      ht.reserve(in_count_);
      for (size_t i = 0; i < in_count_; ++i) {
        if (Tick(k)) return;
        ht[in_[i * width_ + jv]].push_back(static_cast<uint32_t>(i));
      }
      for (size_t j = 0; j < span.size(); ++j) {
        ++scanned_;
        if (trace_ != nullptr) ++trace_->step_rows_scanned[k];
        if (Tick(k)) return;
        auto it = ht.find(Comp(span[j], jp));
        if (it == ht.end()) continue;
        for (uint32_t i : it->second) {
          if (ProduceCheck(k, i, tp, span[j])) {
            if (timed_out_) return;
            pairs.push_back({i, span[j]});
          }
        }
      }
    }
    NormalizeAndCommit(k, tp, &pairs);
  }

  // Sorts match pairs into the depth-first emission order — (left row
  // index, then the pattern's free components in Graph::MatchOrder
  // sequence) — and passes them on. A component counts as bound when it is
  // a constant or holds a prefix-bound variable; two distinct triples of
  // one pair group always differ on a free component, so the order is
  // total.
  void NormalizeAndCommit(size_t k, const EncodedPattern& tp,
                          Counted<MatchPair>* pairs) {
    const TermId* row0 = in_.data();  // every left row binds the same vars
    auto bound = [row0](const EncodedTerm& e) {
      return !e.is_var() || row0[e.id] != rdf::kInvalidTermId;
    };
    const std::vector<int> ord =
        rdf::Graph::MatchOrder(bound(tp.s), bound(tp.p), bound(tp.o));
    std::sort(pairs->begin(), pairs->end(),
              [&ord](const MatchPair& a, const MatchPair& b) {
                if (a.left != b.left) return a.left < b.left;
                for (int c : ord) {
                  const TermId ca = Comp(a.t, c);
                  const TermId cb = Comp(b.t, c);
                  if (ca != cb) return ca < cb;
                }
                return false;
              });
    for (const MatchPair& mp : *pairs) {
      LocalBind binds[3];
      int nb = 0;
      const TermId* lrow = LeftRow(mp.left);
      BindCheck(lrow, tp, mp.t, binds, &nb);  // passed ProduceCheck
      Pass(k, lrow, binds, nb);
      if (Halted()) return;
    }
  }

  // ---- row plumbing ------------------------------------------------------

  const TermId* LeftRow(size_t left) const {
    return in_.data() + left * width_;
  }

  // Checks triple `t` against the pattern given the left row: constants
  // must match, prefix-bound and repeated variables must agree, and free
  // variables collect their bindings into `binds`.
  bool BindCheck(const TermId* row, const EncodedPattern& tp, const Triple& t,
                 LocalBind binds[3], int* nb) const {
    *nb = 0;
    const EncodedTerm* terms[3] = {&tp.s, &tp.p, &tp.o};
    const TermId vals[3] = {t.s, t.p, t.o};
    for (int pos = 0; pos < 3; ++pos) {
      const EncodedTerm& e = *terms[pos];
      if (e.is_bound()) {
        if (e.id != vals[pos]) return false;
        continue;
      }
      if (e.is_missing()) return false;
      TermId bound = rdf::kInvalidTermId;
      for (int i = 0; i < *nb; ++i) {
        if (binds[i].var == e.id) {
          bound = binds[i].value;
          break;
        }
      }
      if (bound == rdf::kInvalidTermId) bound = row[e.id];
      if (bound != rdf::kInvalidTermId) {
        if (bound != vals[pos]) return false;
      } else {
        binds[*nb].var = e.id;
        binds[(*nb)++].value = vals[pos];
      }
    }
    return true;
  }

  // Counts one match at step k (post-bind, pre-filter: the step's true
  // cardinality) and applies the intermediate-row abort.
  void CountProduced(size_t k) {
    ++produced_[k];
    if (trace_ != nullptr) ++trace_->step_rows_produced[k];
    ++rows_produced_;
    if (options_.max_intermediate_rows != 0 &&
        rows_produced_ > options_.max_intermediate_rows) {
      timed_out_ = true;
    }
  }

  // Streaming breaker output: count the match and pass it on.
  void Emit(size_t k, size_t left, const EncodedPattern& tp, const Triple& t) {
    LocalBind binds[3];
    int nb = 0;
    const TermId* lrow = LeftRow(left);
    if (!BindCheck(lrow, tp, t, binds, &nb)) return;
    CountProduced(k);
    if (timed_out_) return;
    Pass(k, lrow, binds, nb);
  }

  // Pair-path production check: counts the match but defers passing it on
  // to the canonical-order commit.
  bool ProduceCheck(size_t k, size_t left, const EncodedPattern& tp,
                    const Triple& t) {
    LocalBind binds[3];
    int nb = 0;
    if (!BindCheck(LeftRow(left), tp, t, binds, &nb)) return false;
    CountProduced(k);
    return true;
  }

  // Loads a left row plus step k's new bindings and continues the segment.
  void Pass(size_t k, const TermId* lrow, const LocalBind* binds, int nb) {
    std::copy(lrow, lrow + width_, bindings_.begin());
    for (int i = 0; i < nb; ++i) bindings_[binds[i].var] = binds[i].value;
    Continue(k);
  }

  /// Amortized wall-clock / cancellation check: one branch per call, a
  /// clock read every kTimeoutCheckInterval work units. Work advances on
  /// probes and scans, not produced rows, so zero-result nested loops still
  /// observe it. The same tick publishes running totals to the resource
  /// tracker and serves cooperative cancellation, keeping the accounting
  /// overhead amortized to the tick.
  bool Tick(size_t step) {
    if (options_.timeout_ms <= 0 && resources_ == nullptr) return false;
    if (++timeout_ticks_ < kTimeoutCheckInterval) return false;
    timeout_ticks_ = 0;
    if (resources_ != nullptr) {
      resources_->Publish(probes_, scanned_, rows_produced_, appended_rows_,
                          static_cast<uint32_t>(step));
      if (resources_->cancel_requested()) {
        resources_->NoteCancelObserved();
        timed_out_ = true;
        cancelled_ = true;
        return true;
      }
    }
    if (options_.timeout_ms > 0 && timer_.ElapsedMs() > options_.timeout_ms) {
      timed_out_ = true;
      return true;
    }
    return false;
  }

  void Finish() {
    static obs::Counter* bgp_runs =
        obs::MetricsRegistry::Global().GetCounter("exec.bgp_runs");
    static obs::Counter* select_runs =
        obs::MetricsRegistry::Global().GetCounter("exec.select_runs");
    static obs::Counter* probe_counter =
        obs::MetricsRegistry::Global().GetCounter("exec.index_probes");
    static obs::Counter* scan_counter =
        obs::MetricsRegistry::Global().GetCounter("exec.rows_scanned");
    static obs::Counter* timeouts =
        obs::MetricsRegistry::Global().GetCounter("exec.timeouts");
    if (trace_ != nullptr) {
      trace_->total_probes = probes_;
      trace_->total_rows_scanned = scanned_;
    }
    if (resources_ != nullptr) {
      resources_->Publish(probes_, scanned_, rows_produced_, appended_rows_,
                          static_cast<uint32_t>(order_.size()));
    }
    (sink_ == Sink::kBgp ? bgp_runs : select_runs)->Add();
    probe_counter->Add(probes_);
    scan_counter->Add(scanned_);
    if (timed_out_) timeouts->Add();
  }

  const rdf::Graph& graph_;
  const ParsedQuery* query_;  // null for the BGP count sink
  const EncodedBgp& bgp_;
  const PhysicalPlan& pplan_;
  const ExecOptions& options_;
  const Sink sink_;
  obs::ExecTrace* trace_;
  obs::ResourceTracker* resources_;
  obs::MemoryAccount* account_;  // null when no tracker is attached
  const size_t width_;  // bindings per row (number of BGP variables)
  Timer timer_;

  std::vector<uint32_t> order_;     // join order: steps[k].pattern
  size_t seg_end_ = 0;              // first step after the current segment
  std::vector<TermId> bindings_;    // the depth-first segment's row
  std::vector<uint64_t> produced_;  // per-step true cardinality
  Counted<TermId> in_;              // breaker input table, row-major
  size_t in_count_ = 0;
  Counted<TermId> out_;             // table the current segment builds
  size_t out_count_ = 0;
  exec::FilterPlan filters_;

  // Query sinks.
  exec::SelectShape shape_;
  std::optional<uint64_t> limit_;   // the rows sink's LIMIT (1 for ASK)
  uint64_t stop_at_ = kNoStop;      // rows that answer the query early
  uint64_t matches_ = 0;
  std::vector<TermId> order_keys_;  // parallel to table_.rows (pre-sort)
  ResultTable table_;

  uint64_t rows_produced_ = 0;
  uint64_t appended_rows_ = 0;  // rows materialized into binding tables
  uint64_t probes_ = 0;
  uint64_t scanned_ = 0;
  uint32_t timeout_ticks_ = 0;
  bool timed_out_ = false;
  bool cancelled_ = false;
};

Status Validate(const rdf::Graph& graph, const EncodedBgp& bgp,
                const PhysicalPlan& pplan) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  if (pplan.steps.size() != bgp.patterns.size()) {
    return Status::InvalidArgument(
        "physical plan does not cover every pattern");
  }
  std::vector<bool> seen(bgp.patterns.size(), false);
  for (const PhysicalStep& st : pplan.steps) {
    if (st.pattern >= bgp.patterns.size() || seen[st.pattern]) {
      return Status::InvalidArgument(
          "physical plan order is not a permutation of patterns");
    }
    seen[st.pattern] = true;
  }
  return Status::OK();
}

}  // namespace

Result<ExecResult> ExecuteBgp(const rdf::Graph& graph, const EncodedBgp& bgp,
                              const PhysicalPlan& pplan,
                              const ExecOptions& options) {
  RETURN_NOT_OK(Validate(graph, bgp, pplan));
  return Executor(graph, nullptr, bgp, pplan, options, Sink::kBgp).RunBgp();
}

Result<ExecResult> ExecuteBgp(const rdf::Graph& graph, const EncodedBgp& bgp,
                              const std::vector<uint32_t>& order,
                              const ExecOptions& options) {
  return ExecuteBgp(graph, bgp, InljPlan(order), options);
}

Result<ExecResult> ExecuteBgp(const rdf::Graph& graph, const EncodedBgp& bgp,
                              const ExecOptions& options) {
  std::vector<uint32_t> order(bgp.patterns.size());
  std::iota(order.begin(), order.end(), 0);
  return ExecuteBgp(graph, bgp, order, options);
}

Result<ResultTable> ExecuteQuery(const rdf::Graph& graph,
                                 const ParsedQuery& query,
                                 const EncodedBgp& bgp,
                                 const PhysicalPlan& pplan,
                                 const ExecOptions& options) {
  RETURN_NOT_OK(Validate(graph, bgp, pplan));
  const Sink sink = query.count_aggregate ? Sink::kCount : Sink::kRows;
  return Executor(graph, &query, bgp, pplan, options, sink).RunQuery();
}

}  // namespace shapestats::phys
