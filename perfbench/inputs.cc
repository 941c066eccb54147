#include "inputs.h"

#include <fstream>
#include <sstream>

#include "datagen/lubm.h"
#include "datagen/yago.h"
#include "rdf/ntriples.h"
#include "workload/queries.h"

namespace perfbench {

namespace {

const WorkloadSpec kWorkloads[] = {
    {"lubm_paper", true, false},
    {"lubm_point", true, false},
    {"yago_http", false, true},
};

// Shuffled instances per paper query (lubm_paper: 26 x 8, yago_http: 13 x 16).
// YAGO estimates tie more often, so its plans depend more on pattern order.
constexpr int kLubmShuffles = 8;
constexpr int kYagoShuffles = 16;
std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Re-emits the query with its triple patterns in a seeded random order.
// The paper queries keep one pattern per line inside `WHERE { ... }`.
std::string ShufflePatterns(const std::string& text, Rng& rng) {
  size_t open = text.find('{');
  size_t close = text.rfind('}');
  std::vector<std::string> patterns;
  std::istringstream body(text.substr(open + 1, close - open - 1));
  for (std::string line; std::getline(body, line);) {
    line = Trim(line);
    if (!line.empty() && line.back() == '.') line = Trim(line.substr(0, line.size() - 1));
    if (!line.empty()) patterns.push_back(line);
  }
  rng.Shuffle(patterns);
  std::string out = text.substr(0, open + 1) + "\n";
  for (size_t i = 0; i < patterns.size(); ++i) {
    out += "  " + patterns[i] + (i + 1 < patterns.size() ? " .\n" : "\n");
  }
  return out + text.substr(close);
}

std::vector<Instance> ShuffledPaperQueries(
    const std::vector<shapestats::workload::BenchQuery>& queries, int shuffles,
    Rng& rng) {
  std::vector<Instance> out;
  for (const auto& q : queries) {
    for (int k = 0; k < shuffles; ++k) {
      out.push_back({q.label + "#" + std::to_string(k),
                     ShufflePatterns(q.text, rng)});
    }
  }
  return out;
}

// lubm_point: selective templates of one to three patterns over constants
// drawn by the seed from the LUBM-10 naming scheme (every university has at
// least 10 departments, every department at least 7 full, 10 associate and
// 8 assistant professors). The templates cover FILTER, ASK, LIMIT and
// COUNT(*) forms; one in eight is provably empty (a department of a
// university that only appears as a degreeFrom target, so the IRI is not in
// the graph).
constexpr int kPointPerTemplate = 128;
constexpr const char* kUbPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

std::string Dept(uint64_t u, uint64_t d) {
  return "<http://www.Department" + std::to_string(d) + ".University" +
         std::to_string(u) + ".edu/>";
}

std::string Member(uint64_t u, uint64_t d, const char* rank, uint64_t i) {
  std::string dept = Dept(u, d);
  return dept.substr(0, dept.size() - 1) + rank + std::to_string(i) + ">";
}

std::vector<Instance> PointQueries(Rng& rng) {
  std::vector<Instance> out;
  for (int k = 0; k < kPointPerTemplate; ++k) {
    uint64_t u = rng.Below(10), d = rng.Below(10);
    std::string dept = Dept(u, d);
    std::string full = Member(u, d, "FullProfessor", rng.Below(7));
    std::string assoc = Member(u, d, "AssociateProfessor", rng.Below(10));
    std::string other_dept = Dept(rng.Below(10), rng.Below(10));
    std::string tel = "xxx-xxx-" + std::to_string(1000 + rng.Below(9000));
    std::string missing = Dept(10 + rng.Below(30), d);
    const std::pair<const char*, std::string> forms[] = {
        {"P1", "SELECT ?n ?e WHERE {\n  " + full + " ub:name ?n .\n  " + full +
                   " ub:emailAddress ?e\n}\n"},
        {"P2", "SELECT ?p WHERE {\n  ?p ub:worksFor " + dept + " .\n  FILTER(?p != " +
                   full + ")\n}\n"},
        {"P3", "SELECT ?p ?t WHERE {\n  ?p ub:worksFor " + dept + " .\n  ?p ub:telephone ?t .\n"
                   "  FILTER(?t >= \"" + tel + "\")\n}\n"},
        {"P4", "ASK {\n  " + assoc + " ub:worksFor " + other_dept + "\n}\n"},
        {"P5", "SELECT ?s WHERE {\n  ?s ub:advisor " + full + "\n}\nLIMIT 3\n"},
        {"P6", "SELECT (COUNT(*) AS ?c) WHERE {\n  ?x ub:worksFor " + dept +
                   " .\n  ?x a ub:AssociateProfessor\n}\n"},
        {"P7", "SELECT ?c ?s WHERE {\n  " + full + " ub:teacherOf ?c .\n  ?s ub:takesCourse ?c .\n"
                   "  ?s a ub:GraduateStudent\n}\n"},
        {"P8", "SELECT ?x WHERE {\n  ?x ub:worksFor " + missing + "\n}\n"},
    };
    for (const auto& [label, body] : forms) {
      out.push_back({std::string(label) + "#" + std::to_string(k), kUbPrefix + body});
    }
  }
  return out;
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t WriteGraph(const WorkloadSpec& spec, const std::string& path) {
  // The generators' default options: LUBM-10 (463k triples) and the
  // YAGO-style graph with 300 classes and 60k entities (338k triples).
  shapestats::rdf::Graph graph = spec.lubm ? shapestats::datagen::GenerateLubm()
                                           : shapestats::datagen::GenerateYago();
  if (!shapestats::rdf::SaveNTriplesFile(graph, path).ok()) return 0;
  return graph.NumTriples();
}

std::vector<Instance> MakeInstances(const WorkloadSpec& spec, uint64_t seed) {
  Rng rng(seed ^ 0x5eedc0ffee123457ull);
  if (std::string(spec.name) == "lubm_point") return PointQueries(rng);
  if (spec.lubm) {
    return ShuffledPaperQueries(shapestats::workload::LubmQueries(),
                                kLubmShuffles, rng);
  }
  return ShuffledPaperQueries(shapestats::workload::YagoQueries(),
                              kYagoShuffles, rng);
}

// Format: one record per instance, "@@ <label>" followed by the query text
// lines.
bool WriteInstances(const std::vector<Instance>& instances,
                    const std::string& path) {
  std::ofstream out(path);
  for (const Instance& q : instances) {
    out << "@@ " << q.label << "\n" << q.text;
    if (q.text.empty() || q.text.back() != '\n') out << "\n";
  }
  return static_cast<bool>(out);
}

bool ReadInstances(const std::string& path, std::vector<Instance>* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->clear();
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("@@ ", 0) == 0) {
      out->push_back({line.substr(3), ""});
    } else if (!out->empty()) {
      out->back().text += line + "\n";
    }
  }
  return !out->empty();
}

}  // namespace perfbench
