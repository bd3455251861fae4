// Umbrella header: the public API of the UniClean library. Includes every
// layer's headers — applications (tools/, examples/, bench/) include this
// one; library code includes the specific layer headers instead.
//
// Quickstart: CleanEngine + Session (uniclean/engine.h, uniclean/session.h)
// are the run API. Build the engine once from the master data and rules,
// then clean any number of relations, one Session per run:
//
//   #include "uniclean/uniclean.h"
//   using namespace uniclean;
//
//   auto schema = data::InferCsvSchema("dirty.csv", "data");
//   auto d = data::ReadCsvFile("dirty.csv", *schema);
//   data::ReadConfidenceCsvFile("confidence.csv", &*d);  // optional
//   auto engine = EngineBuilder()
//                     .WithDataSchema(*schema)     // rules parse against it
//                     .WithMasterCsv("master.csv")
//                     .WithRulesFile("rules.txt")
//                     .WithEta(0.8)
//                     .BuildEngine();  // Result<shared_ptr<CleanEngine>>
//   Session session = (*engine)->NewSession();
//   auto result = session.Run(&*d);              // Result<CleanResult>
//   // *d is now consistent; result->journal records every repaired cell
//   // with its phase and justifying rule.
//
// The session runs the paper's phases cRepair → eRepair → hRepair once each
// (uniclean/phase.h); EngineBuilder::WithDefaultPhases selects a subset.
//
// (Every call above returns a Status or Result; check it — bad paths,
// malformed rules or CSVs and out-of-range thresholds are reported there.)
//
// Incremental cleaning rides on the same pair — a tracked session applies
// edits and re-cleans the edited relation once from its pristine values:
//
//   Session session = (*engine)->NewTrackedSession();
//   session.Run(&d);                           // batch clean + pristine copy
//   Delta delta;
//   delta.updates.emplace_back(tuple_id, edited_tuple);
//   auto dr = session.ApplyDelta(delta);       // Result<DeltaResult>
//   FixJournal canon = session.CanonicalJournal();

#ifndef UNICLEAN_UNICLEAN_UNICLEAN_H_
#define UNICLEAN_UNICLEAN_UNICLEAN_H_

#include "baselines/quaid.h"
#include "baselines/sortn.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cost_model.h"
#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "data/csv.h"
#include "data/relation.h"
#include "data/schema.h"
#include "data/value.h"
#include "discovery/cfd_discovery.h"
#include "discovery/fd_discovery.h"
#include "discovery/md_calibration.h"
#include "eval/metrics.h"
#include "gen/corrupt.h"
#include "gen/dataset.h"
#include "reasoning/chase.h"
#include "reasoning/consistency.h"
#include "reasoning/dependency_graph.h"
#include "reasoning/minimal_cover.h"
#include "rules/cfd.h"
#include "rules/md.h"
#include "rules/parser.h"
#include "rules/ruleset.h"
#include "rules/violation.h"
#include "similarity/metrics.h"
#include "similarity/predicate.h"
#include "similarity/suffix_array.h"
#include "uniclean/engine.h"
#include "uniclean/fix_journal.h"
#include "uniclean/phase.h"
#include "uniclean/session.h"

#endif  // UNICLEAN_UNICLEAN_UNICLEAN_H_
