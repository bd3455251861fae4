// Serving with a shared engine: the ROADMAP's "millions of users" shape in
// miniature. One CleanEngine is built once — rules, master data, and (after
// Warmup) the MD match indexes and memos — and then serves many cleaning
// requests, each as a cheap per-request Session. The second half hands a
// whole batch of relations to Engine::RunBatch, which fans sessions out
// over a worker pool; results are byte-identical to the serial loop because
// the shared memos only cache pure functions of the static master data.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gen/dataset.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

int main() {
  gen::GeneratorConfig config;
  config.num_tuples = 300;
  config.master_size = 150;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 7;
  gen::Dataset ds = gen::GenerateHosp(config);

  // Build the shared engine once. WithDataSchema lets the rule text parse
  // without binding any data relation — batches only arrive later.
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .BuildEngine();
  if (!engine.ok()) {
    std::printf("config error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  (*engine)->Warmup();  // pay the MD index build up front, once
  std::printf("engine ready: %zu CFDs, %zu MDs, %d distinct MD premises "
              "(one match index each)\n",
              (*engine)->rules().cfds().size(),
              (*engine)->rules().mds().size(),
              (*engine)->environment().num_matchers());

  // --- The serving loop: one cheap session per incoming request. ----------
  std::printf("\nserving loop (session per request):\n");
  for (int request = 0; request < 3; ++request) {
    data::Relation batch = ds.dirty.Clone();  // "incoming" dirty batch
    Session session = (*engine)->NewSession();
    auto result = session.Run(&batch);
    if (!result.ok()) {
      std::printf("request %d failed: %s\n", request,
                  result.status().ToString().c_str());
      return 1;
    }
    std::printf("  request %d: %d fixes (%zu journal entries)\n", request,
                result->total_fixes(), result->journal.size());
  }

  // --- The batch form: a worker pool of sessions over many relations. -----
  constexpr int kBatch = 4;
  std::vector<data::Relation> storage;
  std::vector<data::Relation*> batch;
  for (int i = 0; i < kBatch; ++i) storage.push_back(ds.dirty.Clone());
  for (data::Relation& r : storage) batch.push_back(&r);

  auto results = (*engine)->RunBatch(batch, /*n_threads=*/2);
  std::printf("\nRunBatch over %d relations on 2 threads:\n", kBatch);
  int total = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      std::printf("  relation %zu failed: %s\n", i,
                  results[i].status().ToString().c_str());
      return 1;
    }
    total += results[i]->total_fixes();
    std::printf("  relation %zu: %d fixes\n", i, results[i]->total_fixes());
  }

  // The warm shared memos mean the whole batch probed the master through
  // caches populated by the first request.
  const core::MemoStats stats = (*engine)->MemoStats();
  std::printf(
      "\nmemo stats after serving: %llu entries, %llu hits, %llu misses\n",
      static_cast<unsigned long long>(stats.entries),
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses));
  return total > 0 ? 0 : 1;
}
