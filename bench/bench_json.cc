// bench_json: the machine-readable perf harness. Executes the fig14-style
// pipeline points (full Uni plus the cumulative cRepair / cRepair+eRepair
// stages on HOSP, full Uni on DBLP and TPC-H), the cold-vs-warm session
// points (MatchEnvironment index build reported separately from repair
// time, then a cold and a warm Session::Run over identical dirty copies),
// the concurrent-session points (one shared CleanEngine, a batch of
// relations through Engine::RunBatch at 1/2/4 threads, journals asserted
// byte-identical to the serial arm) and the §5.2 blocking ablation, and
// writes every measurement to a JSON file so each PR records a comparable
// perf trajectory (BENCH_pipeline.json at the repo root).
//
// Per point it records wall time, items/sec, peak RSS and the number/volume
// of heap allocations (via a counting operator new hook local to this
// binary).
//
// Usage:
//   bench_json [--out FILE] [--quick] [--smoke SECONDS]
//     --out FILE       where to write the JSON (default BENCH_pipeline.json)
//     --quick          CI sizes only (caps |D| at 1000, skips the 4000-tuple
//                      point and the large ablation sweep)
//     --smoke SECONDS  exit non-zero if the 1k-tuple HOSP full-pipeline
//                      point exceeds this wall-clock budget (perf smoke)

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/md_matcher.h"
#include "data/string_pool.h"
#include "gen/dataset.h"
#include "snapshot/snapshot.h"
#include "uniclean/uniclean.h"

#ifdef UNICLEAN_HAVE_SERVE
#include "cluster/cluster_client.h"
#include "cluster/membership.h"
#include "cluster/ring.h"
#include "serve/client.h"
#include "serve/server.h"
#endif

// ---------------------------------------------------------------------------
// Allocation counting hook. Only linked into this binary; counts every
// global operator new so a point's `allocs` / `alloc_bytes` expose how much
// the hot paths churn the heap.
// ---------------------------------------------------------------------------

namespace {
std::atomic<unsigned long long> g_alloc_count{0};
std::atomic<unsigned long long> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line on purpose: once a delete is inlined, GCC 12 sees `new`
// paired with `free` at the call site and reports -Wmismatched-new-delete,
// which fails the -DUNICLEAN_WERROR=ON build. The pairing is correct —
// every operator new above allocates with malloc.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace uniclean;  // NOLINT

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long PeakRssKb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1;
  return ru.ru_maxrss;  // Linux: kilobytes
}

/// Current resident set size from /proc/self/statm, in KB. Unlike the
/// getrusage high-water mark (which is process-cumulative and never
/// decreases), this is a genuine per-point figure.
long CurrentRssKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long pages_total = 0;
  long pages_resident = 0;
  int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) return -1;
  return pages_resident * (sysconf(_SC_PAGESIZE) / 1024);
}

struct Measurement {
  std::string name;
  std::string dataset;
  int num_tuples = 0;
  int master_size = 0;
  std::string phases;  // "c", "ce", "ceh", or "probe"/"scan" for ablation
  double wall_s = 0.0;
  double items_per_sec = 0.0;
  long rss_kb = 0;       // resident set right after the point (per-point)
  long peak_rss_kb = 0;  // process high-water mark (cumulative)
  unsigned long long allocs = 0;
  unsigned long long alloc_bytes = 0;
  long long extra = -1;  // total_fixes for pipeline points, matches for
                         // ablation points; -1 when not applicable
  // Overload-point extras (emitted only when >= 0): client-observed
  // end-to-end request latency including retry backoff, and the fraction of
  // admission attempts the daemon refused.
  double p50_ms = -1.0;
  double p99_ms = -1.0;
  double reject_rate = -1.0;
};

std::vector<Measurement>& Results() {
  static std::vector<Measurement> r;
  return r;
}

/// Runs `fn` once, recording wall time, allocation deltas and peak RSS.
template <typename F>
Measurement Measure(const std::string& name, const std::string& dataset,
                    int num_tuples, int master_size,
                    const std::string& phases, int items, F&& fn) {
  Measurement m;
  m.name = name;
  m.dataset = dataset;
  m.num_tuples = num_tuples;
  m.master_size = master_size;
  m.phases = phases;
  unsigned long long a0 = g_alloc_count.load(std::memory_order_relaxed);
  unsigned long long b0 = g_alloc_bytes.load(std::memory_order_relaxed);
  double t0 = Now();
  m.extra = fn();
  m.wall_s = Now() - t0;
  m.allocs = g_alloc_count.load(std::memory_order_relaxed) - a0;
  m.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - b0;
  m.rss_kb = CurrentRssKb();
  m.peak_rss_kb = PeakRssKb();
  m.items_per_sec =
      m.wall_s > 0 ? static_cast<double>(items) / m.wall_s : 0.0;
  std::printf("%-34s %10.3fs %12.0f items/s %10lluk allocs %8ld KB rss\n",
              m.name.c_str(), m.wall_s, m.items_per_sec, m.allocs / 1000,
              m.rss_kb);
  std::fflush(stdout);
  Results().push_back(m);
  return m;
}

gen::Dataset Generate(const std::string& dataset,
                      const gen::GeneratorConfig& config) {
  if (dataset == "hosp") return gen::GenerateHosp(config);
  if (dataset == "dblp") return gen::GenerateDblp(config);
  return gen::GenerateTpch(config);
}

/// One fig14-style pipeline point: |D| data tuples, full or partial stage
/// set ("c" = cRepair, "ce" = +eRepair, "ceh" = full Uni).
Measurement PipelinePoint(const std::string& dataset, int num_tuples,
                          int master_size, const std::string& phases) {
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = master_size;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 1;
  gen::Dataset ds = Generate(dataset, config);

  const bool erepair = phases.find('e') != std::string::npos;
  const bool hrepair = phases.find('h') != std::string::npos;

  data::Relation d = ds.dirty.Clone();
  std::string name = "fig14_" + dataset + "_" + phases + "_n" +
                     std::to_string(num_tuples);
  // The engine is built inside the timed region: a pipeline point is a
  // cold run, index build included.
  return Measure(name, dataset, num_tuples, master_size, phases, num_tuples,
                 [&]() -> long long {
                   return bench::CleanFresh(&d, ds.master, ds.rules, erepair,
                                            hrepair)
                       .total_fixes();
                 });
}

/// Builds the shared engine the session/concurrency points run against.
std::shared_ptr<CleanEngine> BuildEngineFor(const gen::Dataset& ds) {
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .BuildEngine();
  if (!engine.ok()) {
    std::fprintf(stderr, "bench_json: engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(engine).value();
}

/// One cold-vs-warm session triple: a single CleanEngine (one shared
/// MatchEnvironment) cleans two identical dirty copies in successive
/// sessions. The "build" point is Warmup() — pure MD index construction;
/// "cold" is the first run, which fills the similarity / blocking / match
/// memos; "warm" is the second run, where every probe hits the warm memos —
/// the serving scenario's steady state.
void SessionPoint(const std::string& dataset, int num_tuples,
                  int master_size) {
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = master_size;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 1;
  gen::Dataset ds = Generate(dataset, config);
  std::shared_ptr<CleanEngine> engine = BuildEngineFor(ds);

  const std::string suffix = "_n" + std::to_string(num_tuples);
  // The build point indexes the *master* relation, so its rate is per
  // master tuple (the dirty data plays no part in Warmup).
  Measure("session_" + dataset + "_build" + suffix, dataset, num_tuples,
          master_size, "build", master_size, [&]() -> long long {
            engine->Warmup();
            return 0;
          });
  data::Relation cold_copy = ds.dirty.Clone();
  data::Relation warm_copy = ds.dirty.Clone();
  for (const char* stage : {"cold", "warm"}) {
    data::Relation* copy =
        std::strcmp(stage, "cold") == 0 ? &cold_copy : &warm_copy;
    Measure("session_" + dataset + "_" + stage + suffix, dataset, num_tuples,
            master_size, stage, num_tuples, [&]() -> long long {
              Session session = engine->NewSession();
              auto result = session.Run(copy);
              if (!result.ok()) {
                std::fprintf(stderr, "bench_json: session run failed: %s\n",
                             result.status().ToString().c_str());
                std::exit(2);
              }
              return result->total_fixes();
            });
  }
}

/// Concurrent-session throughput: one shared warm engine, a batch of
/// kRelations identical dirty copies, Engine::RunBatch at 1 / 2 / 4
/// threads. The memos are pre-warmed by a throwaway run so every arm
/// measures the steady serving state rather than crediting later arms with
/// the earlier arms' cache fills; the t1 arm is the serial reference and
/// every other arm's journals must be byte-identical to it.
void ConcurrentPoint(const std::string& dataset, int num_tuples,
                     int master_size) {
  constexpr int kRelations = 12;  // divisible by every thread count
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = master_size;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 1;
  gen::Dataset ds = Generate(dataset, config);
  std::shared_ptr<CleanEngine> engine = BuildEngineFor(ds);
  engine->Warmup();
  {
    data::Relation scratch = ds.dirty.Clone();
    Session session = engine->NewSession();
    auto warm = session.Run(&scratch);
    if (!warm.ok()) {
      std::fprintf(stderr, "bench_json: memo pre-warm failed: %s\n",
                   warm.status().ToString().c_str());
      std::exit(2);
    }
  }

  std::vector<std::string> serial_journals;  // t1 reference, CSV-serialized
  double t1_wall = 0.0;
  for (int threads : {1, 2, 4}) {
    std::vector<data::Relation> storage;
    storage.reserve(kRelations);
    std::vector<data::Relation*> batch;
    for (int i = 0; i < kRelations; ++i) {
      storage.push_back(ds.dirty.Clone());
      batch.push_back(&storage.back());
    }
    const std::string name = "concurrent_" + dataset + "_n" +
                             std::to_string(num_tuples) + "_t" +
                             std::to_string(threads);
    std::vector<Result<CleanResult>> results;
    Measurement m = Measure(
        name, dataset, num_tuples, master_size, "t" + std::to_string(threads),
        kRelations * num_tuples, [&]() -> long long {
              results = engine->RunBatch(batch, threads);
              long long fixes = 0;
              for (const auto& r : results) {
                if (!r.ok()) {
                  std::fprintf(stderr, "bench_json: %s failed: %s\n",
                               name.c_str(), r.status().ToString().c_str());
                  std::exit(2);
                }
                fixes += r->total_fixes();
              }
              return fixes;
            });
    // Byte-identical journals across arms: serialize each relation's
    // journal and pin the concurrent arms to the serial reference.
    for (int i = 0; i < kRelations; ++i) {
      std::ostringstream csv;
      Status s = results[static_cast<size_t>(i)]->journal.WriteCsv(csv);
      if (!s.ok()) {
        std::fprintf(stderr, "bench_json: journal serialize failed\n");
        std::exit(2);
      }
      if (threads == 1) {
        serial_journals.push_back(csv.str());
      } else if (csv.str() != serial_journals[static_cast<size_t>(i)]) {
        std::fprintf(stderr,
                     "bench_json: %s journal %d differs from the serial "
                     "reference — concurrent runs are not deterministic\n",
                     name.c_str(), i);
        std::exit(2);
      }
    }
    if (threads == 1) {
      t1_wall = m.wall_s;
    } else if (t1_wall > 0.0) {
      const double speedup = t1_wall / m.wall_s;
      std::printf("    %s speedup over t1: %.2fx\n", name.c_str(), speedup);
      // Scaling only exists where cores do; on a multi-core box a t4 arm
      // that fails to clear 1.5x means RunBatch serialized somewhere
      // (coarse lock, contended shard) — flag it loudly so the CI bench
      // log catches the regression even though the run still succeeds.
      const unsigned cores = std::thread::hardware_concurrency();
      if (threads == 4 && cores >= 4 && speedup < 1.5) {
        std::fprintf(stderr,
                     "bench_json: WARNING: %s is only %.2fx over t1 on a "
                     "%u-core machine — concurrent sessions are not "
                     "scaling\n",
                     name.c_str(), speedup, cores);
      }
    }
  }
}

/// Incremental cleaning: a tracked session batch-cleans all but k tuples
/// (unmeasured setup), then one ApplyDelta folds the k held-out tuples in.
/// The reference arm is a full memo-warm Session::Run over the complete
/// relation. Every k point is one re-run from pristine values (the edits,
/// a pristine clone and the pipeline), so it costs about one reference run
/// whatever k is; its `result` is the live tuple count.
void DeltaPoint(const std::string& dataset, int num_tuples, int master_size) {
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = master_size;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 1;
  gen::Dataset ds = Generate(dataset, config);
  std::shared_ptr<CleanEngine> engine = BuildEngineFor(ds);
  engine->Warmup();
  {
    // Pre-warm the memos so both arms measure the steady serving state.
    data::Relation scratch = ds.dirty.Clone();
    Session session = engine->NewSession();
    auto warm = session.Run(&scratch);
    if (!warm.ok()) {
      std::fprintf(stderr, "bench_json: delta pre-warm failed: %s\n",
                   warm.status().ToString().c_str());
      std::exit(2);
    }
  }

  const std::string suffix = "_n" + std::to_string(num_tuples);
  data::Relation full = ds.dirty.Clone();
  Measure("delta_" + dataset + suffix + "_full_rerun", dataset, num_tuples,
          master_size, "warm", num_tuples, [&]() -> long long {
            Session session = engine->NewSession();
            auto result = session.Run(&full);
            if (!result.ok()) {
              std::fprintf(stderr, "bench_json: full re-run failed: %s\n",
                           result.status().ToString().c_str());
              std::exit(2);
            }
            return result->total_fixes();
          });

  for (int k : {1, 16, 64}) {
    data::Relation initial(ds.dirty.schema_ptr());
    for (data::TupleId t = 0; t < ds.dirty.size() - k; ++t) {
      initial.AddTuple(ds.dirty.tuple(t));
    }
    Session session = engine->NewTrackedSession();
    auto batch = session.Run(&initial);  // unmeasured: the standing state
    if (!batch.ok()) {
      std::fprintf(stderr, "bench_json: tracked batch run failed: %s\n",
                   batch.status().ToString().c_str());
      std::exit(2);
    }
    Delta delta;
    for (int i = 0; i < k; ++i) {
      delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - k + i));
    }
    // `result` reports the live tuple count (tuples re-cleaned).
    Measure("delta_" + dataset + suffix + "_k" + std::to_string(k), dataset,
            num_tuples, master_size, "delta", k, [&]() -> long long {
              auto dr = session.ApplyDelta(delta);
              if (!dr.ok()) {
                std::fprintf(stderr, "bench_json: ApplyDelta failed: %s\n",
                             dr.status().ToString().c_str());
                std::exit(2);
              }
              return dr->affected;
            });
  }
}

/// Snapshot warm starts (src/snapshot/): how long until a fresh process has
/// a warm engine, cold vs from a snapshot file. Every iteration runs under
/// a fresh ScopedStringPool so it replays the full intern sequence a
/// restarted daemon would; the minimum over iterations is recorded — the
/// honest startup floor on jittery single-core CI boxes (Measure()'s
/// single-shot wall time would compare noise, not paths). The master is
/// sized up: index build scales with |Dm|, and snapshots exist for masters
/// big enough that rebuilding hurts.
void SnapshotPoint(const std::string& dataset, int num_tuples,
                   int master_size) {
  const std::string path = "/tmp/uniclean_bench_" + dataset + ".ucsnap";
  const std::string base =
      "snapshot_" + dataset + "_n" + std::to_string(num_tuples);
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = master_size;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 1;

  auto record = [&](const std::string& name, const std::string& phase,
                    double wall_s, long long extra) {
    Measurement m;
    m.name = name;
    m.dataset = dataset;
    m.num_tuples = num_tuples;
    m.master_size = master_size;
    m.phases = phase;
    m.wall_s = wall_s;
    m.items_per_sec = wall_s > 0 ? 1.0 / wall_s : 0.0;
    m.rss_kb = CurrentRssKb();
    m.peak_rss_kb = PeakRssKb();
    m.extra = extra;
    std::printf("%-34s %10.3fs %12.0f items/s %10lluk allocs %8ld KB rss\n",
                m.name.c_str(), m.wall_s, m.items_per_sec, 0ull, m.rss_kb);
    std::fflush(stdout);
    Results().push_back(m);
  };

  // Write cost: one warm engine, min-of-3 WriteSnapshot (extra = bytes).
  double write_s = 1e100;
  long long file_bytes = 0;
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate(dataset, config);
    auto engine = BuildEngineFor(ds);
    engine->Warmup();
    for (int i = 0; i < 3; ++i) {
      const double t0 = Now();
      Status written = snapshot::WriteSnapshot(*engine, path);
      if (!written.ok()) {
        std::fprintf(stderr, "bench_json: snapshot write failed: %s\n",
                     written.ToString().c_str());
        std::exit(2);
      }
      write_s = std::min(write_s, Now() - t0);
    }
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    file_bytes = static_cast<long long>(in.tellg());
  }
  record(base + "_write", "write", write_s, file_bytes);

  // Cold start: BuildEngine + Warmup — what a daemon pays without a
  // snapshot. Dataset generation happens inside the scope but outside the
  // timed region (a real process reads files; neither path is the index
  // build this point isolates).
  double cold_s = 1e100;
  for (int i = 0; i < 3; ++i) {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate(dataset, config);
    const double t0 = Now();
    auto engine = BuildEngineFor(ds);
    engine->Warmup();
    cold_s = std::min(cold_s, Now() - t0);
  }
  record("serve_" + dataset + "_cold_start", "cold", cold_s, -1);

  // Warm start: FromSnapshot, same configuration (the load verifies the
  // engine fingerprint, restores every index and hands back a
  // serving-ready engine).
  double warm_s = 1e100;
  for (int i = 0; i < 7; ++i) {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate(dataset, config);
    const double t0 = Now();
    auto engine = EngineBuilder()
                      .WithDataSchema(ds.dirty.schema_ptr())
                      .WithMaster(&ds.master)
                      .WithRules(&ds.rules)
                      .WithEta(1.0)
                      .FromSnapshot(path);
    if (!engine.ok()) {
      std::fprintf(stderr, "bench_json: snapshot load failed: %s\n",
                   engine.status().ToString().c_str());
      std::exit(2);
    }
    Session session = (*engine)->NewSession();
    warm_s = std::min(warm_s, Now() - t0);
  }
  record(base + "_load", "load", warm_s, -1);
  record("serve_" + dataset + "_snapshot_start", "warm", warm_s, -1);
  std::printf("%-34s %10.1fx cold/warm startup\n",
              ("snapshot_" + dataset + "_speedup").c_str(), cold_s / warm_s);
  std::remove(path.c_str());
}

#ifdef UNICLEAN_HAVE_SERVE
/// A fresh directory `/tmp/<prefix>.XXXXXX`, removed with everything in it
/// when the object goes out of scope.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix)
      : path_("/tmp/" + prefix + ".XXXXXX") {
    if (::mkdtemp(path_.data()) == nullptr) {
      std::fprintf(stderr, "bench_json: mkdtemp failed\n");
      std::exit(2);
    }
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Full wire round-trips through an in-process unicleand: the generated
/// sample goes to disk (the daemon builds engines from files), a Daemon
/// starts on an ephemeral port, and one Client measures a complete CLEAN
/// round trip — CSV out, journal streamed back — twice. "cold" is the
/// first request (it fills the engine's match memos); "warm" is the second,
/// the steady serving state. The gap between a serve point and its
/// session_* sibling is the protocol + framing + threading overhead.
void ServePoint(const std::string& dataset, int num_tuples, int master_size) {
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = master_size;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 1;
  gen::Dataset ds = Generate(dataset, config);

  const ScratchDir scratch("uniclean_bench_serve");
  const std::string& dir = scratch.path();
  if (!data::WriteCsvFile(dir + "/dirty.csv", ds.dirty).ok() ||
      !data::WriteCsvFile(dir + "/master.csv", ds.master).ok()) {
    std::fprintf(stderr, "bench_json: cannot write the serve dataset\n");
    std::exit(2);
  }
  {
    std::ofstream rules(dir + "/rules.txt");
    rules << ds.rule_text;
  }
  std::ostringstream dirty_csv;
  if (!data::WriteCsv(dirty_csv, ds.dirty).ok()) std::exit(2);

  serve::RulesetConfig ruleset;
  ruleset.name = dataset;
  ruleset.master_csv = dir + "/master.csv";
  ruleset.rules_file = dir + "/rules.txt";
  ruleset.schema_csv = dir + "/dirty.csv";
  ruleset.eta = 1.0;
  serve::DaemonOptions options;
  options.port = 0;
  options.n_workers = 2;
  serve::Daemon daemon(options, {ruleset});
  Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_json: daemon start failed: %s\n",
                 started.ToString().c_str());
    std::exit(2);
  }
  auto connected = serve::Client::Connect("127.0.0.1", daemon.port());
  if (!connected.ok()) {
    std::fprintf(stderr, "bench_json: connect failed: %s\n",
                 connected.status().ToString().c_str());
    std::exit(2);
  }
  serve::Client client = std::move(connected).value();

  const std::string prefix =
      "serve_" + dataset + "_n" + std::to_string(num_tuples) + "_";
  for (const char* stage : {"cold", "warm"}) {
    Measure(prefix + stage, dataset, num_tuples, master_size, stage,
            num_tuples, [&]() -> long long {
              serve::CleanRequest request;
              request.data_csv = dirty_csv.str();
              auto reply = client.Clean(request);
              if (!reply.ok()) {
                std::fprintf(stderr, "bench_json: wire clean failed: %s\n",
                             reply.status().ToString().c_str());
                std::exit(2);
              }
              return reply->total_fixes;
            });
  }
  client.Close();
  daemon.Shutdown();
}

/// Overload point: a daemon sized for 4 concurrent CLEANs (2 workers + 2
/// queue slots) takes 8 concurrent retrying clients — 2x capacity. The
/// excess is refused at admission with kUnavailable + retry-after and the
/// clients' capped exponential backoff carries every request to success;
/// the point records client-observed p50/p99 end-to-end latency (backoff
/// included) and the daemon's admission rejection rate.
void ServeOverloadPoint(const std::string& dataset, int num_tuples,
                        int master_size) {
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = master_size;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 1;
  gen::Dataset ds = Generate(dataset, config);

  const ScratchDir scratch("uniclean_bench_overload");
  const std::string& dir = scratch.path();
  if (!data::WriteCsvFile(dir + "/dirty.csv", ds.dirty).ok() ||
      !data::WriteCsvFile(dir + "/master.csv", ds.master).ok()) {
    std::fprintf(stderr, "bench_json: cannot write the overload dataset\n");
    std::exit(2);
  }
  {
    std::ofstream rules(dir + "/rules.txt");
    rules << ds.rule_text;
  }
  std::ostringstream dirty_csv;
  if (!data::WriteCsv(dirty_csv, ds.dirty).ok()) std::exit(2);

  serve::RulesetConfig ruleset;
  ruleset.name = dataset;
  ruleset.master_csv = dir + "/master.csv";
  ruleset.rules_file = dir + "/rules.txt";
  ruleset.schema_csv = dir + "/dirty.csv";
  ruleset.eta = 1.0;
  serve::DaemonOptions options;
  options.port = 0;
  options.n_workers = 2;
  options.max_queue = 2;
  serve::Daemon daemon(options, {ruleset});
  Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_json: overload daemon start failed: %s\n",
                 started.ToString().c_str());
    std::exit(2);
  }
  {
    // Pre-warm the engine memos so the measured phase is the serving
    // steady state, not the first request's cache fill.
    auto warm = serve::Client::Connect("127.0.0.1", daemon.port());
    if (!warm.ok()) std::exit(2);
    serve::CleanRequest request;
    request.data_csv = dirty_csv.str();
    if (!warm->Clean(request).ok()) {
      std::fprintf(stderr, "bench_json: overload pre-warm failed\n");
      std::exit(2);
    }
  }

  constexpr int kClients = 8;            // 2x the admission capacity
  constexpr int kRequestsPerClient = 4;
  std::vector<double> latencies_ms;      // joined before reading
  std::mutex latencies_mu;
  const std::string name =
      "serve_" + dataset + "_overload_n" + std::to_string(num_tuples);
  Measure(name, dataset, num_tuples, master_size, "overload",
          kClients * kRequestsPerClient * num_tuples, [&]() -> long long {
            std::atomic<long long> fixes{0};
            std::vector<std::thread> threads;
            for (int i = 0; i < kClients; ++i) {
              threads.emplace_back([&, i] {
                auto connected =
                    serve::Client::Connect("127.0.0.1", daemon.port());
                if (!connected.ok()) std::exit(2);
                serve::Client client = std::move(connected).value();
                serve::RetryPolicy policy;
                policy.max_retries = 200;
                policy.base_backoff_ms = 5;
                policy.max_backoff_ms = 100;
                policy.jitter_seed = static_cast<uint64_t>(i + 1);
                client.set_retry_policy(policy);
                std::vector<double> mine;
                for (int r = 0; r < kRequestsPerClient; ++r) {
                  serve::CleanRequest request;
                  request.data_csv = dirty_csv.str();
                  const double t0 = Now();
                  auto reply = client.Clean(request);
                  if (!reply.ok()) {
                    std::fprintf(stderr,
                                 "bench_json: overloaded clean failed: %s\n",
                                 reply.status().ToString().c_str());
                    std::exit(2);
                  }
                  mine.push_back((Now() - t0) * 1000.0);
                  fixes.fetch_add(reply->total_fixes);
                }
                std::lock_guard<std::mutex> lock(latencies_mu);
                latencies_ms.insert(latencies_ms.end(), mine.begin(),
                                    mine.end());
              });
            }
            for (std::thread& t : threads) t.join();
            return fixes.load();
          });

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const size_t n = latencies_ms.size();
  Measurement& m = Results().back();
  m.p50_ms = latencies_ms[n / 2];
  m.p99_ms = latencies_ms[(n * 99) / 100 < n ? (n * 99) / 100 : n - 1];
  const double rejected = static_cast<double>(daemon.requests_rejected());
  const double attempts =
      rejected + static_cast<double>(kClients * kRequestsPerClient);
  m.reject_rate = attempts > 0 ? rejected / attempts : 0.0;
  std::printf(
      "    %s: p50 %.1f ms, p99 %.1f ms, reject rate %.2f "
      "(%llu refusals)\n",
      name.c_str(), m.p50_ms, m.p99_ms, m.reject_rate,
      static_cast<unsigned long long>(daemon.requests_rejected()));
  daemon.Shutdown();
}

/// Cluster points (src/cluster): a 2-replica R=2 fleet over unix sockets
/// sharing a snapshot dir.
///
///  * cluster_<ds>_route_overhead — a warm CLEAN through the consistent-hash
///    routing client vs the same request on a direct serve::Client
///    connection (cluster_<ds>_direct_warm): the ring hash, health ranking
///    and session bookkeeping must cost ~nothing on top of the wire round
///    trip.
///
///  * cluster_failover_recovery_{cold,warm} — the primary owner is killed
///    and a replacement daemon starts on the same address; the point times
///    replacement start + the first successful routed CLEAN. The warm arm
///    boots from the snapshot the original fleet persisted (the cluster
///    acceptance pin: warm recovery >= 5x faster than the cold rebuild).
void ClusterPoint(const std::string& dataset, int num_tuples,
                  int master_size) {
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = master_size;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 1;
  gen::Dataset ds = Generate(dataset, config);

  const ScratchDir scratch("uniclean_bench_cluster");
  const std::string& dir = scratch.path();
  if (!data::WriteCsvFile(dir + "/dirty.csv", ds.dirty).ok() ||
      !data::WriteCsvFile(dir + "/master.csv", ds.master).ok()) {
    std::fprintf(stderr, "bench_json: cannot write the cluster dataset\n");
    std::exit(2);
  }
  {
    std::ofstream rules(dir + "/rules.txt");
    rules << ds.rule_text;
  }
  if (::mkdir((dir + "/snapshots").c_str(), 0755) != 0) {
    std::fprintf(stderr, "bench_json: mkdir snapshots failed\n");
    std::exit(2);
  }
  std::ostringstream dirty_csv;
  if (!data::WriteCsv(dirty_csv, ds.dirty).ok()) std::exit(2);

  serve::RulesetConfig ruleset;
  ruleset.name = dataset;
  ruleset.master_csv = dir + "/master.csv";
  ruleset.rules_file = dir + "/rules.txt";
  ruleset.schema_csv = dir + "/dirty.csv";
  ruleset.eta = 1.0;

  const std::vector<std::string> names = {"r1", "r2"};
  auto sock_of = [&](const std::string& name) {
    return "unix:" + dir + "/" + name + ".sock";
  };
  auto daemon_options = [&](const std::string& name, bool with_snapshots) {
    serve::DaemonOptions o;
    o.listen = sock_of(name);
    o.n_workers = 2;
    if (with_snapshots) o.snapshot_dir = dir + "/snapshots";
    return o;
  };

  Result<cluster::Ring> built = cluster::Ring::Make(names);
  if (!built.ok()) std::exit(2);
  const cluster::Ring ring = std::move(built).value();
  std::map<std::string, std::unique_ptr<serve::Daemon>> daemons;
  for (const std::string& name : names) {
    daemons[name] = std::make_unique<serve::Daemon>(
        daemon_options(name, /*with_snapshots=*/true),
        std::vector<serve::RulesetConfig>{ruleset});
    Status started = daemons[name]->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bench_json: cluster daemon start failed: %s\n",
                   started.ToString().c_str());
      std::exit(2);
    }
  }
  auto make_membership = [&]() {
    auto membership = std::make_shared<cluster::Membership>();
    for (const std::string& name : names) {
      (void)membership->AddReplica(name, sock_of(name));
    }
    return membership;
  };
  auto make_client = [&]() {
    cluster::ClusterClientOptions options;
    options.replication = 2;
    return std::make_unique<cluster::ClusterClient>(ring, make_membership(),
                                                    options);
  };

  serve::CleanRequest request;
  request.ruleset = dataset;
  request.data_csv = dirty_csv.str();

  // Pre-warm the primary's memos and capture the reference journal every
  // later arm must reproduce byte-identically.
  const std::string primary = ring.PrimaryOwner(dataset);
  auto routed = make_client();
  auto warmed = routed->Clean(request);
  if (!warmed.ok()) {
    std::fprintf(stderr, "bench_json: cluster pre-warm failed: %s\n",
                 warmed.status().ToString().c_str());
    std::exit(2);
  }
  const std::string reference_journal = warmed->journal_csv;

  auto check_journal = [&](const Result<serve::CleanReply>& reply,
                           const char* what) -> long long {
    if (!reply.ok()) {
      std::fprintf(stderr, "bench_json: %s failed: %s\n", what,
                   reply.status().ToString().c_str());
      std::exit(2);
    }
    if (reply->journal_csv != reference_journal) {
      std::fprintf(stderr, "bench_json: %s journal diverged\n", what);
      std::exit(2);
    }
    return reply->total_fixes;
  };

  const std::string prefix = "cluster_" + dataset + "_";
  auto direct_connected = serve::Client::ConnectAddress(sock_of(primary));
  if (!direct_connected.ok()) std::exit(2);
  serve::Client direct = std::move(direct_connected).value();
  const Measurement direct_m = Measure(
      prefix + "direct_warm", dataset, num_tuples, master_size, "warm",
      num_tuples, [&]() -> long long {
        return check_journal(direct.Clean(request), "direct warm clean");
      });
  const Measurement routed_m = Measure(
      prefix + "route_overhead", dataset, num_tuples, master_size, "warm",
      num_tuples, [&]() -> long long {
        return check_journal(routed->Clean(request), "routed warm clean");
      });
  if (direct_m.wall_s > 0) {
    std::printf("    %sroute_overhead: %.1f%% over the direct connection\n",
                prefix.c_str(),
                (routed_m.wall_s / direct_m.wall_s - 1.0) * 100.0);
  }
  direct.Close();

  // Failover recovery: retire the ruleset's primary owner, start a
  // replacement on the same address, time start -> first routed CLEAN.
  // The cold arm's drain persists the memo heat the primary earned above,
  // so the warm arm restores warmed memos, not just the index build -- the
  // rolling-restart story the snapshot layer exists for.
  double recovery_s[2] = {0.0, 0.0};
  int arm_index = 0;
  for (const char* arm : {"cold", "warm"}) {
    const bool warm = arm_index == 1;
    daemons[primary]->Shutdown();  // the "crash"
    const Measurement m = Measure(
        "cluster_failover_recovery_" + std::string(arm), dataset, num_tuples,
        master_size, arm, num_tuples, [&]() -> long long {
          auto replacement = std::make_unique<serve::Daemon>(
              daemon_options(primary, /*with_snapshots=*/warm),
              std::vector<serve::RulesetConfig>{ruleset});
          Status started = replacement->Start();
          if (!started.ok()) {
            std::fprintf(stderr,
                         "bench_json: replacement start failed: %s\n",
                         started.ToString().c_str());
            std::exit(2);
          }
          daemons[primary] = std::move(replacement);
          auto client = make_client();
          return check_journal(client->Clean(request),
                               "post-failover routed clean");
        });
    recovery_s[arm_index++] = m.wall_s;
  }
  if (recovery_s[1] > 0) {
    std::printf("    cluster_failover_recovery: warm %.2fx faster than cold\n",
                recovery_s[0] / recovery_s[1]);
  }
  for (auto& [name, daemon] : daemons) daemon->Shutdown();
}
#endif  // UNICLEAN_HAVE_SERVE

/// The §5.2 blocking ablation: per-probe match cost with the suffix-array
/// index vs a brute-force master scan.
void AblationPoint(int master_size, bool use_blocking) {
  gen::GeneratorConfig config;
  config.num_tuples = 300;
  config.master_size = master_size;
  config.seed = 600 + static_cast<uint64_t>(master_size);
  gen::Dataset ds = gen::GenerateHosp(config);
  const rules::Md& md = ds.rules.mds().back();  // similarity-only MD

  core::MdMatcherOptions options;
  options.use_blocking = use_blocking;
  // Measure per-probe match cost, not memo hits: duplicates (dup_rate)
  // would otherwise resolve from the match cache in both arms.
  options.use_memos = false;
  core::MdMatcher matcher(md, ds.master, options);

  std::string name = std::string("ablation_blocking_") +
                     (use_blocking ? "on" : "off") + "_m" +
                     std::to_string(master_size);
  Measure(name, "hosp", config.num_tuples, master_size,
          use_blocking ? "probe" : "scan", config.num_tuples,
          [&]() -> long long {
            long long found = 0;
            for (data::TupleId t = 0; t < ds.dirty.size(); ++t) {
              found += matcher.Matches(ds.dirty.tuple(t)).empty() ? 0 : 1;
            }
            return found;
          });
}

void WriteJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"schema\": \"uniclean-bench-v1\",\n  \"results\": [\n");
  const std::vector<Measurement>& rs = Results();
  for (size_t i = 0; i < rs.size(); ++i) {
    const Measurement& m = rs[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"dataset\": \"%s\", \"num_tuples\": %d, "
        "\"master_size\": %d, \"phases\": \"%s\", \"wall_s\": %.6f, "
        "\"items_per_sec\": %.1f, \"rss_kb\": %ld, "
        "\"cumulative_peak_rss_kb\": %ld, \"allocs\": %llu, "
        "\"alloc_bytes\": %llu, \"result\": %lld",
        m.name.c_str(), m.dataset.c_str(), m.num_tuples, m.master_size,
        m.phases.c_str(), m.wall_s, m.items_per_sec, m.rss_kb, m.peak_rss_kb,
        m.allocs, m.alloc_bytes, m.extra);
    if (m.p50_ms >= 0) {
      std::fprintf(f,
                   ", \"p50_ms\": %.2f, \"p99_ms\": %.2f, "
                   "\"reject_rate\": %.4f",
                   m.p50_ms, m.p99_ms, m.reject_rate);
    }
    std::fprintf(f, "}%s\n", i + 1 < rs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu points)\n", path.c_str(), rs.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_pipeline.json";
  bool quick = false;
  double smoke_budget_s = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0 && i + 1 < argc) {
      char* end = nullptr;
      smoke_budget_s = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || smoke_budget_s <= 0) {
        std::fprintf(stderr, "bench_json: bad --smoke budget '%s'\n",
                     argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_json [--out FILE] [--quick] "
                   "[--smoke SECONDS]\n");
      return 2;
    }
  }

  // HOSP: the paper's primary scalability subject — cumulative stages like
  // Fig. 14(a), plus the 4000-tuple acceptance point (full runs only).
  for (int n : quick ? std::vector<int>{250, 1000}
                     : std::vector<int>{250, 1000, 4000}) {
    PipelinePoint("hosp", n, 500, "c");
    PipelinePoint("hosp", n, 500, "ce");
    PipelinePoint("hosp", n, 500, "ceh");
  }
  // DBLP / TPC-H: full pipeline shape.
  for (int n : quick ? std::vector<int>{250} : std::vector<int>{250, 1000}) {
    PipelinePoint("dblp", n, 500, "ceh");
    PipelinePoint("tpch", n, 300, "ceh");
  }
  // Cold-vs-warm sessions: index build, memo-cold first run and memo-warm
  // second run over identical dirty copies (warm reuse acceptance: the warm
  // DBLP run must beat the cold one).
  SessionPoint("hosp", 1000, 500);
  SessionPoint("dblp", 1000, 500);
  SessionPoint("tpch", 1000, 300);
#ifdef UNICLEAN_HAVE_SERVE
  // Serving round trips: the same cold/warm pair measured end-to-end
  // through unicleand's wire protocol (in-process daemon + client), then
  // the admission-control point at 2x capacity (8 retrying clients vs
  // 2 workers + 2 queue slots): p50/p99 end-to-end latency and the
  // rejection rate.
  ServePoint("hosp", 1000, 500);
  ServeOverloadPoint("hosp", quick ? 250 : 1000, quick ? 125 : 500);
  // Cluster routing + failover: route overhead over a direct connection,
  // then kill-the-primary recovery cold vs snapshot-warm (cluster
  // acceptance: warm recovery >= 5x faster). The big master makes the
  // replacement's engine build the dominant recovery cost, as in a serving
  // deployment; --quick keeps the point.
  ClusterPoint("hosp", 250, 4000);
#endif
  // Concurrent sessions: a shared warm engine cleans a 12-relation batch
  // through RunBatch at 1 / 2 / 4 threads (journals pinned byte-identical
  // to the serial arm). Scaling needs real cores; a 1-core runner measures
  // the locking overhead instead.
  ConcurrentPoint("hosp", 1000, 500);
  ConcurrentPoint("dblp", 1000, 500);
  // Incremental cleaning: one ApplyDelta of k held-out tuples against a
  // tracked session (one re-run from pristine values), vs a full memo-warm
  // run of the whole relation.
  DeltaPoint("hosp", 1000, 500);
  DeltaPoint("dblp", 1000, 500);
  // Snapshot warm starts: snapshot write/load cost and cold-vs-warm daemon
  // startup (snapshot acceptance: the warm start must beat the cold index
  // build by >= 10x). The 8000-tuple master matches a serving deployment —
  // index build grows superlinearly with |Dm| while the restore path stays
  // near its flat floor, which is the layer's whole reason to exist.
  // --quick keeps the point.
  SnapshotPoint("hosp", 1000, 8000);
  // Blocking ablation (§5.2).
  for (int m : quick ? std::vector<int>{500} : std::vector<int>{500, 2000}) {
    AblationPoint(m, /*use_blocking=*/true);
    AblationPoint(m, /*use_blocking=*/false);
  }

  WriteJson(out);

  if (smoke_budget_s > 0) {
    for (const Measurement& m : Results()) {
      if (m.name == "fig14_hosp_ceh_n1000" && m.wall_s > smoke_budget_s) {
        std::fprintf(stderr,
                     "PERF SMOKE FAILED: 1k-tuple HOSP pipeline took %.2fs "
                     "(budget %.2fs)\n",
                     m.wall_s, smoke_budget_s);
        return 1;
      }
    }
  }
  return 0;
}
