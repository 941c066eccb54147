// Live query registry: the "what is running right now" half of the
// introspection plane (DESIGN.md §12). Every engine Execute / ExecuteBatch
// slot registers a record (query text, request/batch ids, phase, step
// progress, a ResourceTracker) into a lock-sharded live map for the
// lifetime of the query; completion moves a frozen QueryRecord into a
// bounded ring and per-template aggregates. The server's /debug/queries and
// the shell's .running render snapshots; Cancel(id) flips the record's
// tracker flag, which the executor observes on its next work tick.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/resource_tracker.h"
#include "util/thread_annotations.h"

namespace shapestats::obs {

/// Frozen view of one query, either in flight (snapshot) or completed.
struct QueryRecord {
  uint64_t id = 0;          // registry-assigned, process-unique
  uint64_t request_id = 0;  // serving-plane request id (0 = none)
  uint64_t batch_id = 0;    // engine batch id (0 = direct Execute)
  uint32_t slot = 0;        // index within the batch
  std::string query;        // SPARQL text (truncated to kMaxQueryBytes)
  std::string cache_template;  // "t:<hash>" when the plan cache saw it
  std::string phase;  // parse|analyze|static-check|plan|execute|done
  /// Completed records only: ok | static-empty | timeout | cancelled | error.
  std::string outcome;
  uint64_t steps_total = 0;      // join steps in the plan (0 before planning)
  uint64_t steps_completed = 0;  // executor's current step
  uint64_t rows_produced = 0;    // intermediate bindings so far
  uint64_t num_results = 0;      // completed records only
  double started_ms = 0;         // process clock at registration
  double elapsed_ms = 0;
  ResourceSnapshot resources;

  std::string ToJson() const;
};

/// Cumulative per-template execution statistics, aggregated from completed
/// registrations (not bounded by the ring). Joined with PlanCache counters
/// by the shell's `.top`.
struct TemplateStats {
  std::string cache_template;
  uint64_t executions = 0;
  uint64_t rows_produced = 0;
  uint64_t num_results = 0;
  double total_ms = 0;
};

class QueryRegistry {
 public:
  struct Options {
    /// Completed-query ring capacity.
    size_t completed_capacity = 256;
    /// Per-template aggregate map cap; new templates beyond it are folded
    /// into an "(other)" bucket so a hostile workload cannot grow memory.
    size_t max_templates = 1024;
  };

  static constexpr size_t kShards = 16;
  static constexpr size_t kMaxQueryBytes = 2048;

  QueryRegistry() : QueryRegistry(Options()) {}
  explicit QueryRegistry(Options options);

  /// Process-wide instance used by the engine unless overridden.
  static QueryRegistry& Global();

  /// SHAPESTATS_REGISTRY resolution: enabled unless "0"/"off"/"false"/"no".
  static bool EnabledByEnv();

  /// RAII registration for one query execution. Destruction without an
  /// explicit Complete() finalizes the record with outcome "error" (the
  /// engine bailed before its finish path).
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept { *this = std::move(other); }
    Registration& operator=(Registration&& other) noexcept {
      if (this != &other) {
        Finalize("error");
        registry_ = other.registry_;
        rec_ = std::move(other.rec_);
        other.registry_ = nullptr;
        other.rec_.reset();
      }
      return *this;
    }
    ~Registration() { Finalize("error"); }
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;

    explicit operator bool() const { return rec_ != nullptr; }
    uint64_t id() const;
    /// The query's resource tracker; null for an empty registration.
    ResourceTracker* tracker() const;

    void SetPhase(const char* phase);
    void SetTemplate(const std::string& cache_template);
    void SetStepsTotal(uint64_t steps);

    /// Freezes the record into the completed ring and drops it from the
    /// live map. Idempotent; later setter calls are no-ops.
    void Complete(const char* outcome, uint64_t num_results);

   private:
    friend class QueryRegistry;
    void Finalize(const char* outcome);
    QueryRegistry* registry_ = nullptr;
    std::shared_ptr<struct LiveQuery> rec_;
  };

  Registration Register(std::string query, uint64_t request_id,
                        uint64_t batch_id, uint32_t slot);

  /// Requests cooperative cancellation of a live query. False when the id
  /// is unknown or already completed.
  bool Cancel(uint64_t id);

  size_t NumInflight() const;
  std::vector<QueryRecord> Inflight() const;
  /// Newest-first copy of the completed ring (`max` 0 = all).
  std::vector<QueryRecord> Completed(size_t max = 0) const;
  /// Templates by cumulative execution time, descending.
  std::vector<TemplateStats> TopTemplates(size_t n) const;

  uint64_t registered_total() const {
    return registered_.load(std::memory_order_relaxed);
  }
  uint64_t cancelled_total() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// `{"inflight":[...],"completed":[...],"registered":N,...}` with the
  /// completed list capped at `completed_max` (0 = all).
  std::string ToJson(size_t completed_max = 32) const;

 private:
  struct Shard {
    mutable util::Mutex mu;
    std::unordered_map<uint64_t, std::shared_ptr<struct LiveQuery>> live
        SHAPESTATS_GUARDED_BY(mu);
  };
  Shard& ShardFor(uint64_t id) { return shards_[id % kShards]; }
  const Shard& ShardFor(uint64_t id) const { return shards_[id % kShards]; }

  /// Freezes `rec` (already removed from its shard) into the ring.
  void CompleteRecord(const std::shared_ptr<struct LiveQuery>& rec,
                      const char* outcome, uint64_t num_results);

  Options options_;
  Shard shards_[kShards];
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> registered_{0};
  std::atomic<uint64_t> cancelled_{0};
  mutable util::Mutex done_mu_;
  std::deque<QueryRecord> completed_ SHAPESTATS_GUARDED_BY(done_mu_);
  std::unordered_map<std::string, TemplateStats> by_template_
      SHAPESTATS_GUARDED_BY(done_mu_);
};

}  // namespace shapestats::obs
