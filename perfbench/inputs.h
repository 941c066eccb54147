// Benchmark inputs: the generated N-Triples file and the query instances of
// each workload. The graph of a workload is fixed (the generators' default
// seeds); the seed drives the query stream: the pattern shuffles, the
// constants of the lubm_point templates and the visiting order. The same seed always yields the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Deterministic random source (splitmix64), independent of the engine's
/// own generators so the query stream only changes with the benchmark.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  uint64_t state_;
};

/// One query instance of a workload.
struct Instance {
  std::string label;  // paper query label plus shuffle number, e.g. "Q9#2"
  std::string text;   // the SPARQL text sent to the engine
};

struct WorkloadSpec {
  const char* name;
  bool lubm;  // LUBM-10 graph; YAGO-style graph otherwise
  bool http;  // served over loopback by a SparqlServer
};

/// The known workloads; null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Generates the workload's graph and writes it as N-Triples. Returns the
/// number of triples written (0 on an I/O error).
uint64_t WriteGraph(const WorkloadSpec& spec, const std::string& path);

/// The workload's query instances: every paper query of the workload in
/// several seeded pattern orders.
std::vector<Instance> MakeInstances(const WorkloadSpec& spec, uint64_t seed);

/// Reads / writes instances in perfbench_driver's line format.
bool WriteInstances(const std::vector<Instance>& instances,
                    const std::string& path);
bool ReadInstances(const std::string& path, std::vector<Instance>* out);

}  // namespace perfbench
