// Hospital data cleaning: the paper's HOSP scenario at a glance. Generates
// a synthetic hospital quality dataset (19 attributes, 23 CFDs + 3 MDs),
// dirties it, and cleans it with a Session whose progress callback reports
// per-phase accuracy as the pipeline advances — the miniature version of
// §8's Exp-1/Exp-3, built on the observer hook instead of running the
// phases by hand.

#include <cstdio>

#include "baselines/quaid.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

int main() {
  gen::GeneratorConfig config;
  config.num_tuples = 2000;
  config.master_size = 500;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.asserted_rate = 0.4;
  config.seed = 2026;
  gen::Dataset ds = gen::GenerateHosp(config);

  std::printf("HOSP: %d tuples x %d attrs, %d master tuples, %zu CFDs, %zu MDs\n",
              ds.dirty.size(), ds.dirty.schema().arity(), ds.master.size(),
              ds.rules.cfds().size(), ds.rules.mds().size());
  std::printf("injected errors: %d cells\n\n",
              ds.dirty.CellDiffCount(ds.clean));

  // Phase-by-phase accuracy (the paper's Exp-3) from the progress observer:
  // after every phase the callback scores the pipeline's current data
  // against the ground truth. The observer is per-session state, so it is
  // installed on the Session rather than the shared engine.
  eval::PrecisionRecall final_pr;
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)  // §8: confidence threshold 1.0
                    .WithDelta2(0.8)
                    .BuildEngine();
  if (!engine.ok()) {
    std::printf("config error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  data::Relation repaired = ds.dirty.Clone();
  Session session = (*engine)->NewSession();
  session.set_progress_callback([&](const PhaseEvent& event) {
    if (event.kind != PhaseEvent::Kind::kPhaseFinished) return;
    auto pr = eval::RepairAccuracy(ds.dirty, *event.data, ds.clean);
    std::printf("[%d/%d] %-8.*s %5d fixes  precision %.3f  recall %.3f\n",
                event.index + 1, event.total,
                static_cast<int>(event.phase.size()), event.phase.data(),
                event.stats->fixes, pr.precision, pr.recall);
    final_pr = pr;
  });
  auto result = session.Run(&repaired);
  if (!result.ok()) {
    std::printf("run error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("Uni: %d total fixes, F-measure %.3f\n\n",
              result->total_fixes(), final_pr.F());

  // The CFD-only baseline for contrast (Exp-1).
  data::Relation quaid_out = ds.dirty.Clone();
  baselines::Quaid(&quaid_out, ds.rules);
  auto q_pr = eval::RepairAccuracy(ds.dirty, quaid_out, ds.clean);
  std::printf("quaid (CFD-only): precision %.3f  recall %.3f  F %.3f\n",
              q_pr.precision, q_pr.recall, q_pr.F());

  std::printf("\nUni F-measure %.3f vs quaid %.3f -> matching helps repairing\n",
              final_pr.F(), q_pr.F());
  return final_pr.F() > q_pr.F() ? 0 : 1;
}
