// perfbench_driver: the benchmark's measuring program.
//
//   perfbench_driver prepare --workload W --seed N --dir D
//       Writes the workload's N-Triples file and its query instances for the
//       seed, and records the reference answer of every instance from an
//       engine opened with global statistics and forced INLJ joins.
//   perfbench_driver measure --workload W --seed N --dir D --seconds S
//                            --trace 0|1 [--tamper]
//       Opens the engine on the prepared inputs, checks every answer against
//       the reference, and prints one JSON object with the metrics.
//       --trace 0 reports the end-to-end metrics, load timings scaled by the
//       host slowdown (interference.h); --trace 1 is the separate
//       traced run with per-layer metrics. --tamper corrupts one reference
//       answer so the answer check can be seen to fail.
//
// Exit codes: 0 ok, 1 an answer differed from the reference (the JSON then
// has "correct": false), 2 usage or set-up error (no JSON).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/plan_verify.h"
#include "analysis/shape_check.h"
#include "answers.h"
#include "card/estimator.h"
#include "engine/query_engine.h"
#include "http_client.h"
#include "inputs.h"
#include "interference.h"
#include "obs/build_info.h"
#include "opt/join_order.h"
#include "phys/planner.h"
#include "rdf/ntriples.h"
#include "server/sparql_server.h"
#include "shacl/generator.h"
#include "sparql/encoded_bgp.h"
#include "sparql/parser.h"
#include "spans.h"
#include "stats/annotator.h"
#include "stats/global_stats.h"

namespace perfbench {
namespace {

namespace ss = shapestats;
using ss::engine::EngineOptions;
using ss::engine::QueryEngine;

constexpr int kSetupRepeats = 3;  // set-ups per timed run; setup_s is their median
constexpr int kTraceSetupRounds = 2;  // layer-by-layer set-up replays per traced run
constexpr int kTraceSlices = 3;       // alternations of untraced and traced slices
constexpr int64_t kProbeIntervalNs = 500'000'000;  // load between interference probes

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  std::exit(2);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Linear-interpolated percentile of unsorted samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

unsigned Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) n = std::min<long>(n, CPU_COUNT(&set));
  return n < 1 ? 1u : static_cast<unsigned>(n);
}

// Spin probe: the same CPU-bound work on 1 and on T threads at once.
// Effective cores = T * t(1) / t(T); well below T means the threads do not
// get a core each.
double EffectiveCores(unsigned threads) {
  auto spin = [] {
    uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
    static std::atomic<uint64_t> sink;
    sink.store(x, std::memory_order_relaxed);
  };
  auto timed = [&](unsigned n) {
    int64_t t0 = NowNs();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < n; ++i) pool.emplace_back(spin);
    for (auto& t : pool) t.join();
    return static_cast<double>(NowNs() - t0);
  };
  double one = timed(1);
  return static_cast<double>(threads) * one / timed(threads);
}

// --- small JSON writer ------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back(Quote(name) + ":{\"value\":" + Num(value) +
                       ",\"unit\":" + Quote(unit) + "}");
  }
  std::string Json() const { return Join(entries_); }
  static std::string Join(const std::vector<std::string>& parts) {
    std::string out = "{";
    for (size_t i = 0; i < parts.size(); ++i) out += (i ? "," : "") + parts[i];
    return out + "}";
  }

 private:
  std::vector<std::string> entries_;
};

// --- inputs -----------------------------------------------------------------

struct Args {
  std::string command;
  std::string workload;
  uint64_t seed = 1;
  std::string dir;
  double seconds = 10;
  int trace = 0;
  bool tamper = false;
};

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_driver prepare|measure --workload W --seed N --dir D ...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--dir") a.dir = value();
    else if (k == "--seconds") a.seconds = std::strtod(value().c_str(), nullptr);
    else if (k == "--trace") a.trace = std::atoi(value().c_str());
    else if (k == "--tamper") a.tamper = true;
    else Die("unknown argument " + k);
  }
  if (a.dir.empty()) Die("--dir is required");
  return a;
}

std::string DataPath(const Args& a) { return a.dir + "/data.nt"; }
std::string QueriesPath(const Args& a) { return a.dir + "/queries.txt"; }
std::string AnswersPath(const Args& a) { return a.dir + "/answers.txt"; }

// The reference: global statistics only and forced INLJ joins, so its plans
// differ from the measured engine's while its answers must not.
QueryEngine OpenReference(const std::string& nt) {
  EngineOptions opts;
  opts.optimizer = EngineOptions::Optimizer::kGlobalStats;
  opts.join_mode = ss::phys::JoinMode::kInlj;
  opts.plan_cache = EngineOptions::PlanCacheMode::kOff;
  auto engine = QueryEngine::FromNTriplesFile(nt, opts);
  if (!engine.ok()) Die("reference engine: " + engine.status().ToString());
  return std::move(engine).value();
}

int Prepare(const Args& a, const WorkloadSpec& spec) {
  int64_t t0 = NowNs();
  uint64_t triples = WriteGraph(spec, DataPath(a));
  if (triples == 0) Die("cannot write " + DataPath(a));
  QueryEngine ref = OpenReference(DataPath(a));
  std::vector<Instance> instances = MakeInstances(spec, a.seed);
  std::ofstream answers(AnswersPath(a));
  for (const Instance& q : instances) {
    auto r = ref.Execute(q.text);
    if (!r.ok()) Die("reference failed on " + q.label + ": " + r.status().ToString());
    answers << Digest::Of(RowHashes(*r, ref.graph().dict())).Serialize() << "\n";
  }
  if (!answers || !WriteInstances(instances, QueriesPath(a))) Die("cannot write inputs");
  std::printf("{\"triples\":%llu,\"instances\":%zu,\"prepare_s\":%s}\n",
              static_cast<unsigned long long>(triples), instances.size(),
              Num(Seconds(NowNs() - t0)).c_str());
  return 0;
}

// --- answer checking ----------------------------------------------------------

uint64_t BodyHash(const std::string& body) {
  uint64_t h = body.size();
  size_t i = 0;
  for (; i + 8 <= body.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, body.data() + i, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  for (; i < body.size(); ++i) h = (h ^ static_cast<unsigned char>(body[i])) * 0x100000001b3ull;
  return h;
}

// Per-instance answer check. The first answer of each instance is checked
// in full against the reference; later answers that are byte-for-byte (HTTP)
// or id-for-id (in process) the same as an already checked one pass without
// re-decoding, and any other answer is checked in full again.
class AnswerChecker {
 public:
  AnswerChecker(const std::vector<Instance>* instances, std::vector<Digest> expected)
      : instances_(instances), expected_(std::move(expected)),
        checked_(expected_.size()) {}

  void Check(size_t i, const ss::engine::QueryResult& r, const ss::rdf::TermDictionary& dict) {
    Digest ids = IdDigest(r);
    uint64_t key = ids.sum ^ (ids.rows * 0x9e3779b97f4a7c15ull);
    if (Known(i, key)) return;
    if (!Matches(i, RowHashes(r, dict))) return;
    Remember(i, key);
  }

  void CheckBody(size_t i, const std::string& body) {
    uint64_t key = BodyHash(body);
    if (Known(i, key)) return;
    std::vector<uint64_t> rows;
    std::string error;
    if (!RowHashesFromJson(body, &rows, &error)) return Fail(i, error);
    if (!Matches(i, rows)) return;
    Remember(i, key);
  }

  bool failed() const { return failed_; }

 private:
  bool Matches(size_t i, const std::vector<uint64_t>& rows) {
    Digest d = Digest::Of(rows);
    if (d == expected_[i]) return true;
    Fail(i, "answer digest differs from the reference (" + std::to_string(d.rows) +
                " rows, reference " + std::to_string(expected_[i].rows) + ")");
    return false;
  }
  bool Known(size_t i, uint64_t key) const {
    const auto& keys = checked_[i];
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  }
  void Remember(size_t i, uint64_t key) { checked_[i].push_back(key); }
  void Fail(size_t i, const std::string& why) {
    if (!failed_) {
      std::fprintf(stderr, "perfbench_driver: wrong answer for %s: %s\n",
                   (*instances_)[i].label.c_str(), why.c_str());
    }
    failed_ = true;
  }

  const std::vector<Instance>* instances_;
  std::vector<Digest> expected_;
  std::vector<std::vector<uint64_t>> checked_;  // keys of checked answers
  bool failed_ = false;
};

// --- the system under test ----------------------------------------------------

struct System {
  std::optional<QueryEngine> engine;
  std::unique_ptr<ss::server::SparqlServer> server;

  void Reset() {
    if (server) server->Stop();
    server.reset();
    engine.reset();
  }
  ~System() { Reset(); }
};

ss::server::SparqlServerOptions ServerOptions() {
  ss::server::SparqlServerOptions opts;
  opts.http.threads = std::min(opts.http.threads, Nproc());
  return opts;
}

// Set-up as a user pays it: load + finalize + statistics + shapes, plus the
// server start on an HTTP workload. Returns seconds.
double SetUp(const WorkloadSpec& spec, const std::string& nt, System* sys) {
  sys->Reset();
  int64_t t0 = NowNs();
  auto engine = QueryEngine::FromNTriplesFile(nt);
  if (!engine.ok()) Die("open: " + engine.status().ToString());
  sys->engine.emplace(std::move(engine).value());
  if (spec.http) {
    sys->server = std::make_unique<ss::server::SparqlServer>(&*sys->engine, ServerOptions());
    auto st = sys->server->Start();
    if (!st.ok()) Die("server start: " + st.ToString());
  }
  return Seconds(NowNs() - t0);
}

struct Tally {
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;   // error Status, non-200 response or 503 shed
  uint64_t sheds = 0;    // 503s among the failures
  uint64_t bytes = 0;    // response body bytes (HTTP)
  void Merge(const Tally& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    sheds += o.sheds;
    bytes += o.bytes;
  }
};

// The closed-loop visiting order: a seeded permutation of the instances,
// repeated, with each client starting at its own offset.
std::vector<size_t> VisitOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed ^ 0x0a11ce5ull);
  rng.Shuffle(order);
  return order;
}

class Runner {
 public:
  Runner(const WorkloadSpec& spec, uint64_t seed, std::vector<Instance> instances,
         std::vector<Digest> expected)
      : spec_(spec), instances_(std::move(instances)),
        checker_(&instances_, std::move(expected)),
        order_(VisitOrder(instances_.size(), seed)) {
    for (const Instance& q : instances_) {
      targets_.push_back("/sparql?query=" + UrlEncode(q.text));
    }
  }

  System& sys() { return sys_; }
  const std::vector<Instance>& instances() const { return instances_; }
  bool wrong() const { return checker_.failed(); }

  const QueryEngine& engine() const { return *sys_.engine; }

  // One in-process execution, checked. Returns false on an error Status.
  bool ExecuteChecked(size_t i, Tally* tally, ss::obs::QueryTrace* trace = nullptr,
                      ss::engine::QueryResult* out = nullptr) {
    int64_t t0 = NowNs();
    auto r = engine().Execute(instances_[i].text, trace);
    int64_t t1 = NowNs();
    ++tally->attempted;
    if (!r.ok()) {
      ++tally->failed;
      return false;
    }
    tally->latency_ms.push_back(Ms(t1 - t0));
    checker_.Check(i, *r, engine().graph().dict());
    if (out != nullptr) *out = std::move(r).value();
    return true;
  }

  // One HTTP request, checked.
  void RequestChecked(HttpClient& client, size_t i, Tally* tally, SpanRecorder* spans) {
    std::string body;
    int64_t t0 = NowNs();
    int status;
    if (spans != nullptr) {
      ScopedSpan span(spans, "http.request", static_cast<uint32_t>(i));
      status = client.Get(targets_[i], &body);
    } else {
      status = client.Get(targets_[i], &body);
    }
    int64_t t1 = NowNs();
    ++tally->attempted;
    if (status != 200) {
      ++tally->failed;
      if (status == 503) ++tally->sheds;
      return;
    }
    tally->latency_ms.push_back(Ms(t1 - t0));
    tally->bytes += body.size();
    checker_.CheckBody(i, body);
  }

  // Checks every instance once (and lets caches fill) before timing.
  Tally Warmup() {
    Tally tally;
    if (spec_.http) {
      HttpClient client;
      if (!client.Connect(sys_.server->port())) Die("cannot connect to the server");
      for (size_t i = 0; i < instances_.size(); ++i) RequestChecked(client, i, &tally, nullptr);
    } else {
      for (size_t i = 0; i < instances_.size(); ++i) ExecuteChecked(i, &tally);
    }
    return tally;
  }

  // Closed loop for `seconds` with one client, in process or over one
  // keep-alive loopback connection; successive calls continue the visiting
  // order. With a probe, runs it every kProbeIntervalNs between requests and
  // adds its CPU seconds to *probe_cpu_s. Returns the wall seconds of the load
  // alone (probe time left out).
  double ClosedLoop(double seconds, Tally* tally, SpanRecorder* spans,
                    InterferenceProbe* probe = nullptr, double* probe_cpu_s = nullptr) {
    const int64_t t0 = NowNs();
    const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
    int64_t next_probe = t0;
    int64_t probe_ns = 0;
    HttpClient client;
    if (spec_.http && !client.Connect(sys_.server->port())) Die("cannot connect to the server");
    while (NowNs() < deadline && !checker_.failed()) {
      if (probe != nullptr && NowNs() >= next_probe) {
        int64_t p0 = NowNs();
        *probe_cpu_s += probe->Run();
        int64_t p1 = NowNs();
        probe_ns += p1 - p0;
        next_probe = p1 + kProbeIntervalNs;
      }
      size_t i = order_[next_++ % order_.size()];
      if (spec_.http) {
        RequestChecked(client, i, tally, spans);
      } else {
        ExecuteChecked(i, tally);
      }
    }
    return Seconds(NowNs() - t0 - probe_ns);
  }

  // Plan quality of the SS plans, outside any timed phase: per-join-step
  // q-error and the true cost (sum of true intermediate rows, Fig. 4e) over
  // the distinct instances (SELECT queries without LIMIT, so every step
  // count is exact).
  struct PlanQuality {
    std::vector<double> qerrors;
    double true_cost = 0;
    int exact_queries = 0;
  };
  PlanQuality MeasurePlanQuality() {
    PlanQuality pq;
    for (const Instance& q : instances_) {
      auto parsed = ss::sparql::ParseQuery(q.text);
      if (!parsed.ok() || parsed->is_ask || parsed->limit.has_value()) continue;
      auto analyzed = engine().ExplainAnalyze(q.text);
      if (!analyzed.ok() || analyzed->trace.timed_out) continue;
      ++pq.exact_queries;
      pq.true_cost += static_cast<double>(analyzed->trace.true_total_cost);
      for (const auto& step : analyzed->trace.steps) {
        if (!std::isnan(step.q_error)) pq.qerrors.push_back(step.q_error);
      }
    }
    return pq;
  }

 private:
  const WorkloadSpec& spec_;
  std::vector<Instance> instances_;
  AnswerChecker checker_;
  std::vector<size_t> order_;
  size_t next_ = 0;  // position in order_
  std::vector<std::string> targets_;
  System sys_;
};

std::string RunInfo(const Args& a, const Runner& runner, const Tally& timed,
                    const Runner::PlanQuality& pq, double effective_cores,
                    const std::vector<std::string>& extra) {
  const char* threads = std::getenv("SHAPESTATS_THREADS");
  std::vector<std::string> info = {
      "\"workload\":" + Quote(a.workload),
      "\"seed\":" + std::to_string(a.seed),
      "\"trace\":" + std::to_string(a.trace),
      "\"nproc\":" + std::to_string(Nproc()),
      "\"pool_threads\":" + std::to_string(ss::util::ThreadPool::Shared().num_threads()),
      "\"shapestats_threads_env\":" + Quote(threads != nullptr ? threads : ""),
      "\"http_threads\":" + std::to_string(ServerOptions().http.threads),
      "\"effective_cores\":" + Num(effective_cores),
      "\"instances\":" + std::to_string(runner.instances().size()),
      "\"timed_samples\":" + std::to_string(timed.latency_ms.size()),
      "\"samples_beyond_p99\":" + std::to_string(timed.latency_ms.size() / 100),
      "\"plan_quality\":{\"qerror_p50\":" + Num(Percentile(pq.qerrors, 50)) +
          ",\"qerror_p95\":" + Num(Percentile(pq.qerrors, 95)) +
          ",\"steps\":" + std::to_string(pq.qerrors.size()) +
          ",\"exact_queries\":" + std::to_string(pq.exact_queries) +
          ",\"true_cost\":" + Num(pq.true_cost) + "}",
      "\"build\":" + ss::obs::BuildInfoJson(),
  };
  info.insert(info.end(), extra.begin(), extra.end());
  return Metrics::Join(info);
}

void Emit(bool correct, uint64_t attempted, uint64_t failed, const Metrics& m,
          const std::string& info) {
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s,\"info\":%s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.Json().c_str(), info.c_str());
  std::fflush(stdout);
}

// --- timed run (--trace 0): end-to-end metrics --------------------------------

int MeasureTimed(const Args& a, const WorkloadSpec& spec, Runner& runner) {
  double cores = EffectiveCores(std::min(4u, Nproc()));
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) setups.push_back(SetUp(spec, DataPath(a), &runner.sys()));
  Tally warm = runner.Warmup();

  Tally timed;
  InterferenceProbe probe;
  double probe_cpu = 0;
  double cpu0 = CpuSeconds();
  double wall = runner.ClosedLoop(a.seconds, &timed, nullptr, &probe, &probe_cpu);
  double cpu = CpuSeconds() - cpu0 - probe_cpu;
  uint64_t completed = timed.attempted - timed.failed;

  Runner::PlanQuality pq = runner.MeasurePlanQuality();
  uint64_t attempted = warm.attempted + timed.attempted;
  uint64_t failed = warm.failed + timed.failed;

  // Load timings as measured, then scaled by the run's host slowdown (see
  // interference.h). setup_s stays as measured: it is taken before the load
  // and does not follow the probe.
  const double raw_qps = static_cast<double>(completed) / wall;
  const double raw_p50 = Percentile(timed.latency_ms, 50);
  const double raw_p99 = Percentile(timed.latency_ms, 99);
  const double raw_cpu_ms = completed ? cpu * 1e3 / static_cast<double>(completed) : 0;
  // No probe ran when the warm-up already found a wrong answer.
  const double probe_ms = Percentile(probe.times_ms(), 50);
  const double slowdown = probe.times_ms().empty() ? 1.0 : probe_ms / InterferenceProbe::kReferenceMs;

  Metrics m;
  m.Add("setup_s", Percentile(setups, 50), "s");
  m.Add("qps", raw_qps * slowdown, "1/s");
  m.Add("lat_p50_ms", raw_p50 / slowdown, "ms");
  m.Add("lat_p99_ms", raw_p99 / slowdown, "ms");
  m.Add("cpu_ms_per_query", raw_cpu_ms / slowdown, "ms");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("success_rate", attempted ? 1.0 - static_cast<double>(failed) / static_cast<double>(attempted) : 0, "ratio");
  m.Add("qerror_p50", Percentile(pq.qerrors, 50), "ratio");
  m.Add("qerror_p95", Percentile(pq.qerrors, 95), "ratio");
  std::string setups_json = "\"setup_s_each\":[";
  for (size_t i = 0; i < setups.size(); ++i) setups_json += (i ? "," : "") + Num(setups[i]);
  setups_json += "]";
  Emit(!runner.wrong(), attempted, failed, m,
       RunInfo(a, runner, timed, pq, cores,
               {setups_json, "\"measured_s\":" + Num(wall), "\"cpu_s\":" + Num(cpu),
                "\"probe\":{\"median_ms\":" + Num(probe_ms) +
                    ",\"reference_ms\":" + Num(InterferenceProbe::kReferenceMs) +
                    ",\"slowdown\":" + Num(slowdown) +
                    ",\"samples\":" + std::to_string(probe.times_ms().size()) + "}",
                "\"unscaled\":{\"qps\":" + Num(raw_qps) + ",\"lat_p50_ms\":" + Num(raw_p50) +
                    ",\"lat_p99_ms\":" + Num(raw_p99) + ",\"cpu_ms_per_query\":" + Num(raw_cpu_ms) + "}",
                "\"sheds\":" + std::to_string(timed.sheds)}));
  return runner.wrong() ? 1 : 0;
}

// --- traced run (--trace 1): per-layer metrics ----------------------------------

struct LayerTotals {
  uint64_t queries = 0;
  double execute_ms = 0;   // QueryTrace "execute" phase
  double glue_ms = 0;      // Execute wall minus the trace's phases
  double probes = 0, scanned = 0, materialized = 0, build_bytes = 0, peak_bytes = 0;
  double results = 0;
  uint64_t ops_inlj = 0, ops_merge = 0, ops_hash = 0;
};

// Replays the engine's set-up one layer at a time, each call in its own span.
void TraceSetup(const std::string& nt, SpanRecorder* rec, uint64_t* node_shapes,
                uint64_t* property_shapes) {
  ScopedSpan root(rec, "setup", 0);
  ss::rdf::Graph graph;
  {
    ScopedSpan s(rec, "rdf.load", 0);
    if (!ss::rdf::LoadNTriplesFile(nt, &graph).ok()) Die("cannot load " + nt);
  }
  {
    ScopedSpan s(rec, "rdf.finalize", 0);
    graph.Finalize();
  }
  {
    ScopedSpan s(rec, "stats.global", 0);
    ss::stats::GlobalStats::Compute(graph);
  }
  ss::shacl::ShapesGraph shapes;
  {
    ScopedSpan s(rec, "shacl.generate", 0);
    auto generated = ss::shacl::GenerateShapes(graph);
    if (!generated.ok()) Die("shape generation: " + generated.status().ToString());
    shapes = std::move(generated).value();
  }
  {
    ScopedSpan s(rec, "stats.annotate", 0);
    if (!ss::stats::AnnotateShapes(graph, &shapes).ok()) Die("annotation failed");
  }
  *node_shapes = shapes.NumNodeShapes();
  *property_shapes = shapes.NumPropertyShapes();
}

// One instance through the front-end layers called directly, mirroring the
// engine's own sequence (a provably-empty query stops after the check), then
// through QueryEngine::Execute with a QueryTrace for the executor numbers.
void TraceQuery(Runner& runner, const ss::card::CardinalityEstimator& est, size_t i,
                uint32_t qid, SpanRecorder* rec, Tally* tally, LayerTotals* totals,
                bool count_work) {
  const QueryEngine& engine = runner.engine();
  const std::string& text = runner.instances()[i].text;
  ScopedSpan root(rec, "query", qid);
  std::optional<ss::sparql::ParsedQuery> query;
  {
    ScopedSpan s(rec, "sparql.parse", qid);
    auto parsed = ss::sparql::ParseQuery(text);
    if (parsed.ok()) query.emplace(std::move(parsed).value());
  }
  if (query) {
    ss::sparql::EncodedBgp bgp;
    {
      ScopedSpan s(rec, "sparql.encode", qid);
      bgp = ss::sparql::EncodeBgp(*query, engine.graph().dict());
    }
    bool empty;
    {
      ScopedSpan s(rec, "analysis.check", qid);
      ss::analysis::ShapeChecker checker(engine.global_stats(), &engine.shapes(),
                                         engine.graph().dict());
      empty = checker.Check(*query, bgp).provably_empty();
    }
    if (!empty) {
      {
        ScopedSpan s(rec, "card.estimate", qid);
        est.EstimateAll(bgp);
      }
      ss::opt::Plan plan;
      {
        ScopedSpan s(rec, "opt.plan", qid);
        plan = ss::opt::PlanJoinOrder(bgp, est);
      }
      ss::phys::PhysicalPlan pplan;
      {
        ScopedSpan s(rec, "phys.plan", qid);
        pplan = ss::phys::PlanPhysical(bgp, plan, engine.graph());
      }
      {
        ScopedSpan s(rec, "analysis.verify", qid);
        ss::analysis::PlanVerifier verifier;
        verifier.Verify(plan, bgp);
        verifier.Verify(pplan, plan, bgp);
      }
    }
  }
  ss::obs::QueryTrace trace;
  ss::engine::QueryResult result;
  bool ok;
  int64_t t0 = NowNs();
  {
    ScopedSpan s(rec, "engine.execute", qid);
    ok = runner.ExecuteChecked(i, tally, &trace, &result);
  }
  double wall_ms = Ms(NowNs() - t0);
  if (!ok) return;
  double phases_ms = 0;
  for (const auto& p : trace.phases) phases_ms += p.ms;
  ++totals->queries;
  totals->execute_ms += std::max(0.0, trace.PhaseMs("execute"));
  totals->glue_ms += std::max(0.0, wall_ms - phases_ms);
  if (!count_work) return;
  totals->probes += static_cast<double>(trace.resources.index_probes);
  totals->scanned += static_cast<double>(trace.resources.rows_scanned);
  totals->materialized += static_cast<double>(trace.resources.rows_materialized);
  totals->build_bytes += static_cast<double>(trace.resources.build_bytes);
  totals->peak_bytes += static_cast<double>(trace.resources.peak_bytes);
  totals->results += static_cast<double>(trace.num_results);
  for (const auto& step : result.phys.steps) {
    if (step.op == ss::phys::OpKind::kInlj) ++totals->ops_inlj;
    if (step.op == ss::phys::OpKind::kMerge) ++totals->ops_merge;
    if (step.op == ss::phys::OpKind::kHash) ++totals->ops_hash;
  }
}

// Running /metrics totals of the serving plane.
struct ServerTotals {
  HistogramTotals handler;  // server.latency_ms./sparql
  HistogramTotals engine;   // engine.query_ms
  double sheds = 0;
};

ServerTotals Scrape(HttpClient& client) {
  std::string body;
  if (client.Get("/metrics", &body) != 200) Die("cannot read /metrics");
  return {ScrapeHistogram(body, "server_latency_ms__sparql"),
          ScrapeHistogram(body, "engine_query_ms"), ScrapeCounter(body, "server_sheds")};
}

int MeasureTraced(const Args& a, const WorkloadSpec& spec, Runner& runner) {
  double cores = EffectiveCores(std::min(4u, Nproc()));
  // Set-up layers: each round replays the layers one by one, then opens the
  // engine as a user would. Figures are means over the rounds; the open glue
  // is what opening costs beyond the replayed layers.
  std::vector<SpanRecorder> setup_spans(kTraceSetupRounds);
  uint64_t node_shapes = 0, property_shapes = 0;
  double open_ms = 0;
  for (SpanRecorder& rec : setup_spans) {
    TraceSetup(DataPath(a), &rec, &node_shapes, &property_shapes);
    open_ms += SetUp(spec, DataPath(a), &runner.sys()) * 1e3 / kTraceSetupRounds;
  }
  Tally warm = runner.Warmup();
  const QueryEngine& engine = runner.engine();
  ss::card::CardinalityEstimator est(engine.global_stats(), &engine.shapes(),
                                     engine.graph().dict(), ss::card::StatsMode::kShape);
  const size_t n_instances = runner.instances().size();

  // One pass over the distinct instances gives the work counters, so they
  // repeat exactly for a seed.
  std::vector<SpanRecorder> query_spans(1);
  Tally traced;        // in-process Execute with a QueryTrace
  LayerTotals totals;  // times over every traced query, work over the first pass
  uint32_t qid = 1;
  for (size_t i = 0; i < n_instances; ++i) {
    TraceQuery(runner, est, i, qid++, &query_spans[0], &traced, &totals, true);
  }
  const uint64_t first_pass_queries = totals.queries;

  // Then untraced, in-process traced and (HTTP workload) traced HTTP slices
  // take turns, so drift in machine speed hits all of them alike.
  const int parts = spec.http ? 3 : 2;
  const double slice_s = a.seconds / (kTraceSlices * parts);
  Tally untraced, http_traced;
  std::vector<SpanRecorder> http_spans(1);
  ServerTotals server_delta;
  std::optional<HttpClient> scrape;
  if (spec.http) {
    scrape.emplace();
    if (!scrape->Connect(runner.sys().server->port())) Die("cannot connect to the server");
  }
  size_t cursor = 0;
  for (int slice = 0; slice < kTraceSlices && !runner.wrong(); ++slice) {
    runner.ClosedLoop(slice_s, &untraced, nullptr);
    const int64_t deadline = NowNs() + static_cast<int64_t>(slice_s * 1e9);
    while (NowNs() < deadline && !runner.wrong()) {
      TraceQuery(runner, est, cursor++ % n_instances, qid++, &query_spans[0], &traced, &totals,
                 false);
    }
    if (spec.http) {
      ServerTotals before = Scrape(*scrape);
      runner.ClosedLoop(slice_s, &http_traced, &http_spans[0]);
      ServerTotals after = Scrape(*scrape);
      server_delta.handler.sum += after.handler.sum - before.handler.sum;
      server_delta.handler.count += after.handler.count - before.handler.count;
      server_delta.engine.sum += after.engine.sum - before.engine.sum;
      server_delta.engine.count += after.engine.count - before.engine.count;
      server_delta.sheds += after.sheds - before.sheds;
    }
  }

  Runner::PlanQuality pq = runner.MeasurePlanQuality();

  std::vector<SpanRecorder> all;
  all.insert(all.end(), setup_spans.begin(), setup_spans.end());
  all.insert(all.end(), query_spans.begin(), query_spans.end());
  all.insert(all.end(), http_spans.begin(), http_spans.end());
  if (!WriteSpans(all, a.dir + "/spans.jsonl")) Die("cannot write spans");
  std::map<std::string, SelfTime> self = SelfTimes(all);
  auto setup_ms = [&](const char* name) { return Ms(self[name].self_ns) / kTraceSetupRounds; };
  const double n = static_cast<double>(std::max<uint64_t>(1, totals.queries));
  const double n1 = static_cast<double>(std::max<uint64_t>(1, first_pass_queries));
  auto mean_us = [&](const char* name) { return static_cast<double>(self[name].self_ns) / 1e3 / n; };
  auto mean = [](const HistogramTotals& h) { return h.count > 0 ? h.sum / h.count : 0.0; };

  double setup_layers_ms = setup_ms("rdf.load") + setup_ms("rdf.finalize") +
                           setup_ms("stats.global") + setup_ms("shacl.generate") +
                           setup_ms("stats.annotate");
  double handler_ms = mean(server_delta.handler);
  double client_ms = 0, response_bytes = 0;
  if (!http_traced.latency_ms.empty()) {
    for (double v : http_traced.latency_ms) client_ms += v;
    client_ms /= static_cast<double>(http_traced.latency_ms.size());
    response_bytes = static_cast<double>(http_traced.bytes) /
                     static_cast<double>(http_traced.latency_ms.size());
  }

  // Tracing overhead: client-visible latency with tracing (Execute with a
  // QueryTrace in process; HTTP requests in spans) against without.
  double untraced_p50 = Percentile(untraced.latency_ms, 50);
  double traced_p50 = Percentile(spec.http ? http_traced.latency_ms : traced.latency_ms, 50);

  Metrics m;
  m.Add("rdf.load_ms", setup_ms("rdf.load"), "ms");
  m.Add("rdf.finalize_ms", setup_ms("rdf.finalize"), "ms");
  m.Add("stats.global_ms", setup_ms("stats.global"), "ms");
  m.Add("stats.annotate_ms", setup_ms("stats.annotate"), "ms");
  m.Add("shacl.generate_ms", setup_ms("shacl.generate"), "ms");
  m.Add("shacl.node_shapes", static_cast<double>(node_shapes), "count");
  m.Add("shacl.property_shapes", static_cast<double>(property_shapes), "count");
  m.Add("engine.open_glue_ms", open_ms - setup_layers_ms, "ms");
  m.Add("sparql.parse_us", mean_us("sparql.parse"), "us");
  m.Add("sparql.encode_us", mean_us("sparql.encode"), "us");
  m.Add("analysis.check_us", mean_us("analysis.check"), "us");
  m.Add("analysis.verify_us", mean_us("analysis.verify"), "us");
  m.Add("card.estimate_us", mean_us("card.estimate"), "us");
  m.Add("opt.plan_us", mean_us("opt.plan"), "us");
  m.Add("opt.true_cost", pq.true_cost, "rows");
  m.Add("phys.plan_us", mean_us("phys.plan"), "us");
  m.Add("phys.ops_inlj", static_cast<double>(totals.ops_inlj), "count");
  m.Add("phys.ops_merge", static_cast<double>(totals.ops_merge), "count");
  m.Add("phys.ops_hash", static_cast<double>(totals.ops_hash), "count");
  m.Add("exec.execute_ms", totals.execute_ms / n, "ms");
  m.Add("exec.probes", totals.probes / n1, "count");
  m.Add("exec.rows_scanned", totals.scanned / n1, "count");
  m.Add("exec.rows_materialized", totals.materialized / n1, "count");
  m.Add("exec.build_bytes", totals.build_bytes / n1, "bytes");
  m.Add("exec.peak_bytes", totals.peak_bytes / n1, "bytes");
  m.Add("exec.yield", totals.scanned > 0 ? totals.results / totals.scanned : 0, "ratio");
  m.Add("engine.execute_us", mean_us("engine.execute"), "us");
  m.Add("engine.glue_us", totals.glue_ms * 1e3 / n, "us");
  m.Add("server.handler_ms", handler_ms, "ms");
  m.Add("server.transport_ms", spec.http ? client_ms - handler_ms : 0, "ms");
  m.Add("server.beyond_engine_ms", spec.http ? handler_ms - mean(server_delta.engine) : 0, "ms");
  m.Add("server.response_bytes", response_bytes, "bytes");
  m.Add("server.sheds", server_delta.sheds, "count");
  m.Add("trace.lat_p50_ms", traced_p50, "ms");
  m.Add("trace.untraced_lat_p50_ms", untraced_p50, "ms");
  m.Add("trace.overhead_pct", untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1) * 100 : 0, "%");

  Tally timed = untraced;
  timed.Merge(traced);
  timed.Merge(http_traced);
  uint64_t attempted = warm.attempted + timed.attempted;
  uint64_t failed = warm.failed + timed.failed;
  Emit(!runner.wrong(), attempted, failed, m,
       RunInfo(a, runner, untraced, pq, cores,
               {"\"setup_s\":" + Num(open_ms / 1e3),
                "\"exec_yield_base\":\"result rows over rows scanned, one pass over the instances\"",
                "\"traced_queries\":" + std::to_string(totals.queries)}));
  return runner.wrong() ? 1 : 0;
}

int Measure(const Args& a, const WorkloadSpec& spec) {
  std::vector<Instance> instances;
  if (!ReadInstances(QueriesPath(a), &instances)) Die("cannot read " + QueriesPath(a));
  std::vector<Digest> expected;
  std::ifstream in(AnswersPath(a));
  for (std::string line; std::getline(in, line);) {
    Digest d;
    if (!Digest::Parse(line, &d)) Die("bad line in " + AnswersPath(a));
    expected.push_back(d);
  }
  if (expected.size() != instances.size()) Die("answers do not match the queries");
  if (a.tamper) expected[0].sum ^= 1;
  Runner runner(spec, a.seed, std::move(instances), std::move(expected));
  return a.trace ? MeasureTraced(a, spec, runner) : MeasureTimed(a, spec, runner);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  if (args.command == "prepare") return Prepare(args, *spec);
  if (args.command == "measure") return Measure(args, *spec);
  Die("unknown command '" + args.command + "'");
}
