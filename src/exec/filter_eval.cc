#include "exec/filter_eval.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

namespace shapestats::exec {

using rdf::TermId;
using sparql::CompareOp;
using sparql::EncodedBgp;
using sparql::EncodedPattern;
using sparql::EncodedTerm;
using sparql::ParsedQuery;

namespace {

// Numeric value of a literal term if it parses as a number.
bool NumericValue(const rdf::Term& term, double* out) {
  if (!term.is_literal() || term.lexical.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(term.lexical.c_str(), &end);
  if (errno != 0 || end != term.lexical.c_str() + term.lexical.size()) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

bool CompareTerms(const rdf::Term& ta, CompareOp op, const rdf::Term& tb) {
  double va, vb;
  int cmp;
  if (NumericValue(ta, &va) && NumericValue(tb, &vb)) {
    cmp = va < vb ? -1 : (va > vb ? 1 : 0);
  } else if (op == CompareOp::kEq || op == CompareOp::kNe) {
    cmp = ta == tb ? 0 : 1;
  } else {
    cmp = ta.lexical.compare(tb.lexical);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  switch (op) {
    case CompareOp::kEq: return cmp == 0;
    case CompareOp::kNe: return cmp != 0;
    case CompareOp::kLt: return cmp < 0;
    case CompareOp::kLe: return cmp <= 0;
    case CompareOp::kGt: return cmp > 0;
    case CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

Result<FilterPlan> EncodeFilters(const ParsedQuery& query,
                                 const EncodedBgp& bgp,
                                 const std::vector<uint32_t>& order) {
  FilterPlan plan;
  plan.by_depth.resize(order.size());

  std::unordered_map<std::string, sparql::VarId> var_ids;
  for (sparql::VarId v = 0; v < bgp.NumVars(); ++v) {
    var_ids[bgp.var_names[v]] = v;
  }
  // Earliest step at which each variable is bound under `order`.
  std::vector<size_t> bound_at(bgp.NumVars(), order.size());
  for (size_t step = 0; step < order.size(); ++step) {
    const EncodedPattern& tp = bgp.patterns[order[step]];
    for (const EncodedTerm* t : {&tp.s, &tp.p, &tp.o}) {
      if (t->is_var() && bound_at[t->id] == order.size()) {
        bound_at[t->id] = step;
      }
    }
  }
  for (const sparql::FilterComparison& f : query.filters) {
    EncodedFilter ef;
    size_t depth = 0;
    auto encode = [&](const sparql::PatternTerm& t) -> Result<EncodedOperand> {
      EncodedOperand op;
      if (sparql::IsVar(t)) {
        auto it = var_ids.find(sparql::AsVar(t).name);
        if (it == var_ids.end()) {
          return Status::InvalidArgument("FILTER variable ?" +
                                         sparql::AsVar(t).name +
                                         " does not occur in the BGP");
        }
        depth = std::max(depth, bound_at[it->second]);
        op.is_var = true;
        op.var_id = it->second;
        return op;
      }
      op.term = sparql::AsTerm(t);
      return op;
    };
    ASSIGN_OR_RETURN(ef.lhs, encode(f.lhs));
    ef.op = f.op;
    ASSIGN_OR_RETURN(ef.rhs, encode(f.rhs));
    ef.ready_depth = depth;
    // Constant-only filters decide satisfiability up front.
    if (!ef.lhs.is_var && !ef.rhs.is_var) {
      if (!CompareTerms(ef.lhs.term, ef.op, ef.rhs.term)) {
        plan.unsatisfiable = true;
      }
      continue;
    }
    plan.by_depth[ef.ready_depth].push_back(std::move(ef));
  }
  return plan;
}

bool FiltersPass(const std::vector<EncodedFilter>& filters,
                 const TermId* bindings,
                 const rdf::TermDictionary& dict) {
  for (const EncodedFilter& f : filters) {
    const rdf::Term& lhs =
        f.lhs.is_var ? dict.term(bindings[f.lhs.var_id]) : f.lhs.term;
    const rdf::Term& rhs =
        f.rhs.is_var ? dict.term(bindings[f.rhs.var_id]) : f.rhs.term;
    if (!CompareTerms(lhs, f.op, rhs)) return false;
  }
  return true;
}

Result<SelectShape> PrepareSelectShape(const ParsedQuery& query,
                                       const EncodedBgp& bgp) {
  SelectShape shape;
  std::unordered_map<std::string, sparql::VarId> var_ids;
  for (sparql::VarId v = 0; v < bgp.NumVars(); ++v) {
    var_ids[bgp.var_names[v]] = v;
  }
  if (query.select_all) {
    for (sparql::VarId v = 0; v < bgp.NumVars(); ++v) {
      shape.var_names.push_back(bgp.var_names[v]);
      shape.projection.push_back(v);
    }
  } else {
    for (const sparql::Variable& v : query.projection) {
      auto it = var_ids.find(v.name);
      if (it == var_ids.end()) {
        return Status::InvalidArgument("unknown projected variable ?" + v.name);
      }
      shape.var_names.push_back(v.name);
      shape.projection.push_back(it->second);
    }
  }
  if (query.order_by) {
    auto it = var_ids.find(query.order_by->var.name);
    if (it == var_ids.end()) {
      return Status::InvalidArgument("unknown ORDER BY variable");
    }
    shape.order_var = it->second;
  }
  return shape;
}

Status ApplyModifiers(const ParsedQuery& query, std::optional<uint64_t> limit,
                      const rdf::TermDictionary& dict,
                      std::vector<std::vector<TermId>>* rows,
                      std::vector<TermId>* order_keys) {
  // DISTINCT before ORDER BY (projection already applied).
  if (query.distinct) {
    struct RowHash {
      size_t operator()(const std::vector<TermId>& row) const {
        size_t h = 0x9E3779B97F4A7C15ULL;
        for (TermId t : row) h = h * 0x100000001B3ULL ^ t;
        return h;
      }
    };
    std::unordered_set<std::vector<TermId>, RowHash> seen;
    std::vector<std::vector<TermId>> unique_rows;
    std::vector<TermId> unique_keys;
    for (size_t i = 0; i < rows->size(); ++i) {
      if (seen.insert((*rows)[i]).second) {
        unique_rows.push_back((*rows)[i]);
        if (query.order_by) unique_keys.push_back((*order_keys)[i]);
      }
    }
    *rows = std::move(unique_rows);
    *order_keys = std::move(unique_keys);
  }
  if (query.order_by) {
    std::vector<size_t> idx(rows->size());
    std::iota(idx.begin(), idx.end(), 0);
    bool desc = query.order_by->descending;
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      const rdf::Term& ka = dict.term((*order_keys)[a]);
      const rdf::Term& kb = dict.term((*order_keys)[b]);
      bool lt = CompareTerms(ka, CompareOp::kLt, kb);
      bool gt = CompareTerms(ka, CompareOp::kGt, kb);
      return desc ? gt : lt;
    });
    std::vector<std::vector<TermId>> sorted;
    sorted.reserve(idx.size());
    for (size_t i : idx) sorted.push_back(std::move((*rows)[i]));
    *rows = std::move(sorted);
  }
  // OFFSET / LIMIT.
  if (query.offset > 0) {
    if (query.offset >= rows->size()) {
      rows->clear();
    } else {
      rows->erase(rows->begin(),
                  rows->begin() + static_cast<long>(query.offset));
    }
  }
  if (limit && rows->size() > *limit) {
    rows->resize(*limit);
  }
  return Status::OK();
}

}  // namespace shapestats::exec
