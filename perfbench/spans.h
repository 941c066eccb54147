// In-memory spans for the traced run. perfbench_driver opens a span around each
// call it makes into a layer's public API; nothing inside the engine is
// instrumented. Spans are kept in memory, written out once at the end, and
// reduced to per-layer self time (a span's duration minus the part of it
// its child spans cover).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the recorder's spans, -1 for a root
  uint32_t query;  // query id shared by all spans of one request
};

/// One thread's spans. Not thread-safe: each client thread owns one.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int32_t Begin(const char* name, uint32_t query);
  void End(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint32_t query)
      : rec_(rec), index_(rec->Begin(name, query)) {}
  ~ScopedSpan() { rec_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

int64_t NowNs();

/// Per span name: number of spans and total self time in nanoseconds.
struct SelfTime {
  uint64_t spans = 0;
  int64_t self_ns = 0;
  int64_t total_ns = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<SpanRecorder>& recorders);

/// Writes every span as one JSON line (thread, name, start/end ns, parent,
/// query). Returns false on an I/O error.
bool WriteSpans(const std::vector<SpanRecorder>& recorders, const std::string& path);

}  // namespace perfbench
