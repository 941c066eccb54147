#include "interference.h"

#include <sys/resource.h>

#include <algorithm>

#include "inputs.h"
#include "spans.h"

namespace perfbench {

namespace {

constexpr size_t kMapEntries = size_t{1} << 17;
constexpr size_t kSortKeys = size_t{1} << 16;

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace

InterferenceProbe::InterferenceProbe() {
  Rng rng(0x9b0be5ull);
  keys_.resize(kMapEntries);
  for (uint32_t& k : keys_) k = static_cast<uint32_t>(rng.Next());
  map_.reserve(kMapEntries);
  for (size_t i = 0; i < kMapEntries; ++i) map_[keys_[i]] = static_cast<uint32_t>(i);
}

double InterferenceProbe::Run() {
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowNs();
  std::vector<uint32_t> sorted(keys_.begin(), keys_.begin() + kSortKeys);
  std::sort(sorted.begin(), sorted.end());
  uint64_t x = sorted[sink_ % kSortKeys];
  // Half of the lookups hit: the low bit of x flips the key or not.
  for (uint32_t k : keys_) {
    auto it = map_.find(k ^ static_cast<uint32_t>(x & 1));
    if (it != map_.end()) x += it->second;
  }
  int64_t t1 = NowNs();
  sink_ += x;
  times_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
  return ProcessCpuSeconds() - cpu0;
}

}  // namespace perfbench
