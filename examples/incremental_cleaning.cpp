// Incremental cleaning: a tracked session keeps the batch run's violation
// groups alive, so later edits (inserts, updates, deletes) re-clean only the
// tuples they can actually affect. When those reach about half the relation,
// ApplyDelta re-cleans the whole relation once instead, which is then no
// dearer than the scoped rounds. The example drives a stream of
// single-tuple edits through Session::ApplyDelta, reports which path each
// took, and then checks the incremental result — repaired cells and
// canonical fix set — matches a from-scratch batch clean of the final
// relation, the convergence guarantee delta_test pins on both paths.

#include <cstdio>
#include <string>

#include "gen/dataset.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

int main() {
  gen::GeneratorConfig config;
  config.num_tuples = 400;
  config.master_size = 150;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.asserted_rate = 0.4;
  config.seed = 42;
  gen::Dataset ds = gen::GenerateHosp(config);

  // Hold the last 8 tuples out of the initial load; they arrive later as
  // the "stream" of edits.
  constexpr int kHeld = 8;
  data::Relation initial(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
    initial.AddTuple(ds.dirty.tuple(t));
  }

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

  // --- Batch-clean the initial load under delta tracking. -----------------
  Session session = (*engine)->NewTrackedSession();
  auto batch = session.Run(&initial);
  if (!batch.ok()) {
    std::printf("batch run failed: %s\n", batch.status().ToString().c_str());
    return 1;
  }
  std::printf("batch clean: %d tuples, %d fixes\n", initial.size(),
              batch->total_fixes());

  // --- Stream the held-out tuples in, one ApplyDelta each. ----------------
  int recleaned = 0;
  for (int k = 0; k < kHeld; ++k) {
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
    auto dr = session.ApplyDelta(delta);
    if (!dr.ok()) {
      std::printf("delta %d failed: %s\n", k,
                  dr.status().ToString().c_str());
      return 1;
    }
    recleaned += dr->affected;
    std::printf(
        "  delta %d (generation %d): %d of %d tuples re-cleaned%s, %d fixes\n",
        k, dr->generation, dr->affected, initial.size(),
        dr->full_rerun ? " (full re-run)" : "", dr->total_fixes());
  }
  std::printf("stream done: %d tuple-cleanings instead of %d\n", recleaned,
              kHeld * initial.size());

  // --- Convergence: same fixes as cleaning the final relation cold. -------
  data::Relation full = ds.dirty.Clone();
  Session batch_session = (*engine)->NewTrackedSession();
  auto full_run = batch_session.Run(&full);
  if (!full_run.ok()) {
    std::printf("full run failed: %s\n",
                full_run.status().ToString().c_str());
    return 1;
  }
  const bool same_cells = initial.CellDiffCount(full) == 0;
  const bool same_fixes =
      session.CanonicalJournal().CanonicalFixSetCsv() ==
      batch_session.CanonicalJournal().CanonicalFixSetCsv();
  std::printf("incremental == batch: cells %s, canonical fix set %s\n",
              same_cells ? "identical" : "DIFFER",
              same_fixes ? "identical" : "DIFFERS");
  return same_cells && same_fixes ? 0 : 1;
}
