// Introspection-plane overhead benchmark (src/obs/): two claims, both
// asserted in-binary so CI fails on violation, plus BENCH_introspection.json
// telemetry gated by tools/bench_diff against the checked-in baseline.
//
//   1. correctness — the query registry and per-query resource accounting
//      never change results: the fig4a LUBM workload produces byte-identical
//      result tables with the registry on vs off, sequentially and under
//      batch pools of 1 and 4 threads (the digest covers every row of every
//      query), while the on-engine's completed records demonstrably carry
//      non-empty resource snapshots (the accounting is measuring, not
//      disabled);
//   2. performance — the amortized publish tick keeps the accounting
//      overhead at or below 5% of workload wall time, measured over
//      interleaved trials with the best trial per mode gated (one noisy
//      trial on a shared runner must not flip CI).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_telemetry.h"
#include "datagen/lubm.h"
#include "engine/query_engine.h"
#include "obs/query_registry.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/queries.h"

using namespace shapestats;

namespace {

uint64_t Fnv1a(uint64_t v, uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
  }
  return h;
}

uint64_t TableDigest(const phys::ResultTable& table, uint64_t h) {
  h = Fnv1a(table.var_names.size(), h);
  h = Fnv1a(table.rows.size(), h);
  for (const auto& row : table.rows) {
    for (rdf::TermId t : row) h = Fnv1a(t, h);
  }
  return h;
}

engine::QueryEngine OpenLubm(engine::EngineOptions::RegistryMode mode) {
  datagen::LubmOptions dopts;
  dopts.universities = 5;
  engine::EngineOptions opts;
  opts.registry = mode;
  auto e = engine::QueryEngine::Open(datagen::GenerateLubm(dopts), opts);
  if (!e.ok()) {
    std::fprintf(stderr, "engine open failed: %s\n",
                 e.status().ToString().c_str());
    std::abort();
  }
  return std::move(e).value();
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "bench_introspection: FAILED: %s\n", what);
  std::exit(1);
}

}  // namespace

int main() {
  bench::BenchTelemetry telemetry("introspection");
  std::printf("=== Introspection plane: byte-identity, accounting overhead ===\n\n");

  engine::QueryEngine off =
      OpenLubm(engine::EngineOptions::RegistryMode::kOff);
  engine::QueryEngine on = OpenLubm(engine::EngineOptions::RegistryMode::kOn);
  if (off.query_registry() != nullptr) Fail("kOff engine has a registry");
  if (on.query_registry() == nullptr) Fail("kOn engine has no registry");
  std::printf("LUBM-5: %s triples, fig4a workload\n",
              WithCommas(off.graph().NumTriples()).c_str());

  std::vector<std::string> workload;
  for (const workload::BenchQuery& q : workload::LubmQueries()) {
    workload.push_back(q.text);
  }
  std::printf("workload: %zu queries\n\n", workload.size());
  const uint64_t registered_before = on.query_registry()->registered_total();

  // --- 1a. byte-identity, sequential --------------------------------
  uint64_t digest_off = 1469598103934665603ull;
  uint64_t digest_on = 1469598103934665603ull;
  for (const std::string& q : workload) {
    auto a = off.Execute(q);
    auto b = on.Execute(q);
    if (!a.ok() || !b.ok()) Fail("query execution errored");
    digest_off = TableDigest(a->table, digest_off);
    digest_on = TableDigest(b->table, digest_on);
  }
  if (digest_off != digest_on) Fail("registry-on results diverge from off");
  std::printf("sequential digest %016llx (registry on == off)\n",
              static_cast<unsigned long long>(digest_off));
  telemetry.Digest("introspection.results", digest_off);
  telemetry.Counter("introspection.queries",
                    static_cast<double>(workload.size()));

  // The accounting must actually be measuring while results stay
  // identical: every completed record of the sequential pass carries a
  // resource snapshot with real index work behind it.
  std::vector<obs::QueryRecord> done =
      on.query_registry()->Completed(workload.size());
  if (done.size() < workload.size()) Fail("registry missed completions");
  for (const obs::QueryRecord& rec : done) {
    if (rec.outcome != "ok") Fail("completed record outcome is not ok");
    if (rec.resources.Empty()) Fail("completed record has empty resources");
    if (rec.resources.index_probes == 0) Fail("record counted no probes");
  }
  std::printf("registry: %zu completed records, all with resource "
              "snapshots (probes > 0)\n",
              done.size());

  // --- 1b. byte-identity under batch pools --------------------------
  for (unsigned threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    engine::BatchOptions bopts;
    bopts.pool = &pool;
    engine::BatchResult ref = off.ExecuteBatch(workload, bopts);
    engine::BatchResult got = on.ExecuteBatch(workload, bopts);
    uint64_t dr = 1469598103934665603ull, dg = dr;
    for (size_t i = 0; i < workload.size(); ++i) {
      if (!ref.results[i].ok() || !got.results[i].ok()) {
        Fail("batch slot errored");
      }
      dr = TableDigest(ref.results[i]->table, dr);
      dg = TableDigest(got.results[i]->table, dg);
    }
    if (dr != dg) Fail("batch results diverge registry on vs off");
    if (dr != digest_off) Fail("batch results diverge from sequential");
    std::printf("pool=%u digest %016llx (on == off == sequential)\n", threads,
                static_cast<unsigned long long>(dr));
  }

  // --- 2. accounting overhead ---------------------------------------
  // Interleaved trials, best per mode: the floor asserts what the
  // amortized publish tick costs in the best case each mode is capable
  // of, so scheduler noise on one trial cannot flip CI. The sequential
  // and pool passes above already warmed both engines.
  const int trials = 5;
  auto run_workload_ms = [&workload](const engine::QueryEngine& eng) {
    double t0 = NowMs();
    for (const std::string& q : workload) {
      auto r = eng.Execute(q);
      if (!r.ok()) Fail("timed execution errored");
    }
    return NowMs() - t0;
  };
  double best_off = 0, best_on = 0;
  std::printf("\n");
  for (int trial = 0; trial < trials; ++trial) {
    double t_off = run_workload_ms(off);
    double t_on = run_workload_ms(on);
    std::printf("trial %d: off %.2f ms, on %.2f ms\n", trial, t_off, t_on);
    if (trial == 0 || t_off < best_off) best_off = t_off;
    if (trial == 0 || t_on < best_on) best_on = t_on;
  }
  double overhead_pct =
      best_off > 0 ? 100.0 * (best_on - best_off) / best_off : 0;
  std::printf("best: off %.2f ms, on %.2f ms -> overhead %.2f%% "
              "(budget 5%%)\n",
              best_off, best_on, overhead_pct);
  telemetry.Timing("introspection.workload_off_ms", best_off);
  telemetry.Timing("introspection.workload_on_ms", best_on);
  telemetry.Counter("introspection.overhead_within_bounds",
                    overhead_pct <= 5.0 ? 1 : 0);
  if (overhead_pct > 5.0) Fail("accounting overhead above the 5% budget");

  // Every on-engine execution above must have registered exactly once:
  // sequential + two pools + the timed trials.
  const uint64_t registered =
      on.query_registry()->registered_total() - registered_before;
  const uint64_t expected =
      static_cast<uint64_t>(workload.size()) * (1 + 2 + trials);
  if (registered != expected) Fail("registration count mismatch");
  telemetry.Counter("introspection.registered",
                    static_cast<double>(registered));
  std::printf("registry saw %llu registrations (expected %llu)\n",
              static_cast<unsigned long long>(registered),
              static_cast<unsigned long long>(expected));

  std::printf("\nbench_introspection: all assertions passed\n");
  return 0;
}
