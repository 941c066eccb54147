// Order-insensitive answer digests for the reference-answer check.
//
// A solution row is canonicalized as its bindings sorted by variable name,
// each term in N-Triples form, so the same answer digests identically
// whether it comes from a QueryResult, a decoded SPARQL-JSON body, or an
// engine with a different plan (and hence different row and column order).
// The workloads are SELECT queries, so an answer is always a solution table.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/query_engine.h"

namespace perfbench {

/// Multiset digest: the count and the wrapping sum of mixed row hashes.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(uint64_t row_hash);
  bool operator==(const Digest& o) const { return rows == o.rows && sum == o.sum; }

  static Digest Of(const std::vector<uint64_t>& row_hashes);
  /// "<rows> <sum>", one line of the reference-answer file.
  std::string Serialize() const;
  static bool Parse(const std::string& line, Digest* out);
};

/// 64-bit FNV-1a.
uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ull);

/// Canonical row hashes of an engine result (terms decoded through `dict`).
std::vector<uint64_t> RowHashes(const shapestats::engine::QueryResult& result,
                                const shapestats::rdf::TermDictionary& dict);

/// Canonical row hashes of a SPARQL 1.1 JSON results body. False (with
/// `error`) on a malformed or truncated body.
bool RowHashesFromJson(std::string_view body, std::vector<uint64_t>* out,
                       std::string* error);

/// Cheap in-process digest over term ids (columns in variable-name order):
/// equal ids give equal digests, so once one execution of an instance has
/// been checked against the reference, later executions only need to match
/// it.
Digest IdDigest(const shapestats::engine::QueryResult& result);

}  // namespace perfbench
