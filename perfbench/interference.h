// Host-interference probe for the timed run.
//
// On a shared host, other tenants' use of the core's caches and memory moves
// every memory-bound timing by about 10% (one standard deviation) from one
// run to the next, and the level holds for minutes, so longer runs do not
// average it out. The engine and a fixed piece of code with a similar access
// mix slow down largely together (correlation about 0.9 over runs of one
// seed), so scaling removes most but not all of it. The probe is such a
// piece of code: lookups in a 128k-entry hash map and a sort of 64k keys,
// about 15 ms, run between slices of the load. Its median time over a run,
// divided by the reference time below, is the run's host slowdown; the timed
// run divides its timings by it (and multiplies its throughput), so the
// end-to-end figures read as on the reference host. The probe does not touch
// the engine, so a change to the engine moves the scaled figures exactly as
// much as the raw ones.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

class InterferenceProbe {
 public:
  /// Probe time on the reference host, about the median over the runs made
  /// while tuning the benchmark on a 4-vCPU Intel Xeon VM. It only sets the
  /// scale of the reported figures.
  static constexpr double kReferenceMs = 15.0;

  InterferenceProbe();

  /// Times the probe once; returns the process CPU seconds it took, so the
  /// caller can leave them out of the load's CPU time.
  double Run();

  /// The time of every Run() so far.
  const std::vector<double>& times_ms() const { return times_ms_; }

 private:
  std::vector<uint32_t> keys_;
  std::unordered_map<uint32_t, uint32_t> map_;
  std::vector<double> times_ms_;
  uint64_t sink_ = 0;
};

}  // namespace perfbench
