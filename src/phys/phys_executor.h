// The query executor: runs a physical plan (physical_plan.h) step by step
// and records the true cardinality of every intermediate result — the TZ
// Card column of Table 2 and the ground truth for the q-error analysis.
// This is the stand-in for executing plans in Jena TDB in the paper.
//
// Segments. Consecutive scan, inlj and product steps run depth-first over
// one bindings array (index nested-loop joins, streaming, nothing
// materialized), so an all-INLJ plan allocates no binding table. A merge
// or hash step is a pipeline breaker: the segment in front of it appends
// its rows to a binding table, the step joins that table with a sorted
// index run (merge) or a flat key index (hash), and each of its output
// rows drives the next depth-first segment.
//
// Result contract: every well-formed physical plan over the same join
// order yields the same rows in the same order, the same per-step
// cardinalities and the same probe/scan counts as the all-INLJ plan.
// Merge and hash steps generate (left row, triple) match pairs and pass
// them on in the canonical depth-first order — (left row index, free
// pattern components in the INLJ probe's Graph::MatchOrder sequence): a
// stable counting sort groups the pairs by left row, and each group
// already comes in probe order except for a hash join on the predicate of
// a pattern with neither subject nor object bound, whose groups are
// sorted (see DESIGN.md §9 for the argument).
//
// Sinks. The last segment ends in one of three sinks: the BGP count
// (ExecuteBgp: no filters, per-step cardinalities), COUNT(*) (filtered
// matches, no rows built), or rows (projection, then DISTINCT / ORDER BY /
// OFFSET / LIMIT). ASK and LIMIT queries stop early in the rows sink once
// enough rows exist and no ORDER BY or DISTINCT needs the full result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "phys/physical_plan.h"
#include "rdf/graph.h"
#include "sparql/encoded_bgp.h"
#include "sparql/query.h"
#include "util/status.h"

namespace shapestats::phys {

struct ExecOptions {
  /// Abort when the number of produced intermediate rows exceeds this
  /// (0 = unlimited). Mirrors the paper's 10-minute query timeout.
  uint64_t max_intermediate_rows = 0;
  /// Wall-clock timeout in milliseconds (0 = none). Checked on a work
  /// counter that advances per index probe and per scanned triple, so
  /// queries stuck producing zero rows still time out.
  double timeout_ms = 0;
  /// Optional per-step probe/scan counters. When null (the default) the
  /// executor only maintains scalar totals for the global metrics registry.
  obs::ExecTrace* trace = nullptr;
  /// Optional per-query resource accounting + cooperative cancellation.
  /// The executor publishes its running totals here on the amortized work
  /// tick (every 1024 probes/scans) and aborts — with `cancelled` set —
  /// when the tracker's cancel flag is raised, so a cancellation is served
  /// within one work tick.
  obs::ResourceTracker* resources = nullptr;
};

/// Outcome of the BGP count sink.
struct ExecResult {
  /// Number of result rows (BGP solution mappings, bag semantics).
  uint64_t num_results = 0;
  /// True cardinality after joining patterns order[0..k].
  std::vector<uint64_t> step_cards;
  /// Sum of intermediate cardinalities — the paper's true plan cost.
  uint64_t TrueCost() const;
  double elapsed_ms = 0;
  bool timed_out = false;
  /// True when the abort was a served ResourceTracker cancellation (a
  /// cancelled run also sets timed_out: both truncate execution).
  bool cancelled = false;
};

/// A solution table: one row per solution mapping, one column per
/// projected variable.
struct ResultTable {
  std::vector<std::string> var_names;          // projected variables
  std::vector<std::vector<rdf::TermId>> rows;  // after all modifiers
  uint64_t bgp_matches = 0;  // BGP matches after filters, before modifiers
  bool timed_out = false;
  /// True when the abort was a served ResourceTracker cancellation (a
  /// cancelled run also sets timed_out: both truncate execution).
  bool cancelled = false;
  double elapsed_ms = 0;

  /// Renders the table (up to max_rows rows) for terminal output.
  std::string ToString(const rdf::TermDictionary& dict,
                       size_t max_rows = 25) const;
};

/// Counts the BGP's solutions with the plan's operators (no filters or
/// modifiers). `pplan.steps[k].pattern` defines the join order.
Result<ExecResult> ExecuteBgp(const rdf::Graph& graph,
                              const sparql::EncodedBgp& bgp,
                              const PhysicalPlan& pplan,
                              const ExecOptions& options = {});

/// Convenience: counts the BGP's solutions joining patterns in `order`
/// (a permutation of pattern indices) with index nested-loop joins.
Result<ExecResult> ExecuteBgp(const rdf::Graph& graph,
                              const sparql::EncodedBgp& bgp,
                              const std::vector<uint32_t>& order,
                              const ExecOptions& options = {});

/// Convenience: as above, in textual pattern order.
Result<ExecResult> ExecuteBgp(const rdf::Graph& graph,
                              const sparql::EncodedBgp& bgp,
                              const ExecOptions& options = {});

/// Executes a full query with the plan's operators. Filters apply as early
/// as their variables are bound. COUNT(*) queries fill only `bgp_matches`;
/// ASK queries return at most one row; SELECT queries return the projected
/// rows after DISTINCT / ORDER BY / OFFSET / LIMIT. `bgp` must be the
/// encoding of `query` against `graph.dict()`.
Result<ResultTable> ExecuteQuery(const rdf::Graph& graph,
                                 const sparql::ParsedQuery& query,
                                 const sparql::EncodedBgp& bgp,
                                 const PhysicalPlan& pplan,
                                 const ExecOptions& options = {});

}  // namespace shapestats::phys
