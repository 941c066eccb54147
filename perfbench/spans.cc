#include "spans.h"

#include <chrono>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanRecorder::Begin(const char* name, uint32_t query) {
  int32_t parent = open_.empty() ? -1 : open_.back();
  auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, NowNs(), 0, parent, query});
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SelfTime> SelfTimes(
    const std::vector<SpanRecorder>& recorders) {
  std::map<std::string, SelfTime> out;
  for (const SpanRecorder& rec : recorders) {
    const std::vector<Span>& spans = rec.spans();
    // Children of one parent never overlap on a single thread, so the
    // covered part of a parent is the sum of its children's durations.
    std::vector<int64_t> covered(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SelfTime& t = out[spans[i].name];
      int64_t duration = spans[i].end_ns - spans[i].start_ns;
      ++t.spans;
      t.total_ns += duration;
      t.self_ns += duration - covered[i];
    }
  }
  return out;
}

bool WriteSpans(const std::vector<SpanRecorder>& recorders,
                const std::string& path) {
  std::ofstream out(path);
  for (size_t thread = 0; thread < recorders.size(); ++thread) {
    for (const Span& s : recorders[thread].spans()) {
      out << "{\"thread\":" << thread << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"query\":" << s.query << "}\n";
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
