// Reference evaluator for tests: an obviously-correct, deliberately slow
// oracle for the executor. It evaluates a parsed query's basic graph
// pattern with plain nested loops over graph.triples() in textual pattern
// order, matching constants by decoded term value (no index, no encoding,
// no join order), then applies FILTERs and projection. The result is a bag
// of projected rows (bag semantics for conjunctive queries), sorted so
// that two bags compare equal with ==.
//
// Only the term comparison of a FILTER (exec::CompareTerms) is shared with
// the engine: the oracle checks which solutions exist, not how two terms
// order. ORDER BY, OFFSET and LIMIT are not evaluated (they turn a bag into
// a sequence); DISTINCT is.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "exec/filter_eval.h"
#include "rdf/graph.h"
#include "sparql/query.h"

namespace shapestats::reference {

struct Bag {
  std::vector<std::string> var_names;          // projected, in order
  std::vector<std::vector<rdf::TermId>> rows;  // sorted
};

class Evaluator {
 public:
  Evaluator(const rdf::Graph& graph, const sparql::ParsedQuery& query)
      : graph_(graph), query_(query) {}

  /// All solutions of the BGP that pass every FILTER, projected.
  Bag Run() {
    Bag bag;
    if (query_.select_all || query_.count_aggregate) {
      // SELECT * (and the solutions a COUNT(*) counts): every variable, in
      // order of first occurrence.
      for (const sparql::TriplePattern& tp : query_.patterns) {
        for (const sparql::PatternTerm* t : {&tp.s, &tp.p, &tp.o}) {
          if (sparql::IsVar(*t) && Slot(sparql::AsVar(*t).name) < 0) {
            names_.push_back(sparql::AsVar(*t).name);
          }
        }
      }
      bag.var_names = names_;
    } else {
      for (const sparql::Variable& v : query_.projection) {
        bag.var_names.push_back(v.name);
      }
    }
    Extend(0, bag);
    std::sort(bag.rows.begin(), bag.rows.end());
    if (query_.distinct) {
      bag.rows.erase(std::unique(bag.rows.begin(), bag.rows.end()),
                     bag.rows.end());
    }
    return bag;
  }

 private:
  int Slot(const std::string& name) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  rdf::TermId Value(const std::string& name) const {
    for (const auto& [var, value] : bound_) {
      if (var == name) return value;
    }
    return rdf::kInvalidTermId;
  }

  // Matches one pattern position against a triple component, binding a
  // fresh variable. Returns false on a mismatch.
  bool Unify(const sparql::PatternTerm& t, rdf::TermId id) {
    if (!sparql::IsVar(t)) return graph_.dict().term(id) == sparql::AsTerm(t);
    const std::string& name = sparql::AsVar(t).name;
    const rdf::TermId have = Value(name);
    if (have != rdf::kInvalidTermId) return have == id;
    bound_.emplace_back(name, id);
    return true;
  }

  const rdf::Term& Operand(const sparql::PatternTerm& t) const {
    if (!sparql::IsVar(t)) return sparql::AsTerm(t);
    return graph_.dict().term(Value(sparql::AsVar(t).name));
  }

  void Extend(size_t i, Bag& bag) {
    if (i == query_.patterns.size()) {
      for (const sparql::FilterComparison& f : query_.filters) {
        if (!exec::CompareTerms(Operand(f.lhs), f.op, Operand(f.rhs))) return;
      }
      std::vector<rdf::TermId> row;
      for (const std::string& name : bag.var_names) row.push_back(Value(name));
      bag.rows.push_back(std::move(row));
      return;
    }
    const sparql::TriplePattern& tp = query_.patterns[i];
    for (const rdf::Triple& t : graph_.triples()) {
      const size_t mark = bound_.size();
      if (Unify(tp.s, t.s) && Unify(tp.p, t.p) && Unify(tp.o, t.o)) {
        Extend(i + 1, bag);
      }
      bound_.resize(mark);
    }
  }

  const rdf::Graph& graph_;
  const sparql::ParsedQuery& query_;
  std::vector<std::string> names_;  // SELECT * columns
  std::vector<std::pair<std::string, rdf::TermId>> bound_;
};

inline Bag Evaluate(const rdf::Graph& graph, const sparql::ParsedQuery& query) {
  return Evaluator(graph, query).Run();
}

/// Sorts a result table's rows into a bag comparable with Evaluate's.
inline std::vector<std::vector<rdf::TermId>> AsBag(
    std::vector<std::vector<rdf::TermId>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace shapestats::reference
