// Incremental cleaning (Session::ApplyDelta): the convergence contract —
// streaming edits through a tracked session yields the same repaired cells
// and the same canonical journal, provenance included, as one cold batch
// run over the final relation — plus the edge cases around it: batched
// edits, updates, deletes/tombstones, fresh violation groups, no-op
// deltas, validation atomicity, the journal's bound, the
// re-run's phase statistics and progress events, repeated tracked runs,
// cancellation and concurrent tracked sessions (the TSan target). Seeded
// random edit streams are swept in delta_sweep_test.

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "data/csv.h"
#include "data/relation.h"
#include "data/schema.h"
#include "data/value.h"
#include "gen/dataset.h"
#include "rules/parser.h"
#include "uniclean/engine.h"
#include "uniclean/phase.h"
#include "uniclean/session.h"

namespace uniclean {
namespace {

gen::Dataset MakeDataset(const std::string& name, uint64_t seed,
                         int num_tuples = 220) {
  gen::GeneratorConfig config;
  config.num_tuples = num_tuples;
  config.master_size = 120;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.asserted_rate = 0.4;
  config.seed = seed;
  if (name == "HOSP") return gen::GenerateHosp(config);
  if (name == "DBLP") return gen::GenerateDblp(config);
  return gen::GenerateTpch(config);
}

std::shared_ptr<CleanEngine> MakeEngine(const gen::Dataset& ds) {
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .BuildEngine();
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Full canonical CSV including phase/rule provenance: ApplyDelta re-runs
/// the batch pipeline, so its journal matches a batch run's byte for byte.
std::string CanonicalCsv(const FixJournal& journal) {
  std::ostringstream out;
  EXPECT_TRUE(journal.Canonicalized().WriteCsv(out).ok());
  return out.str();
}

/// The journal in append order, provenance included.
std::string JournalCsv(const FixJournal& journal) {
  std::ostringstream out;
  EXPECT_TRUE(journal.WriteCsv(out).ok());
  return out.str();
}

/// Cell diff over live tuples only (tombstoned slots retain whatever bytes
/// they died with, which legitimately differs between an incremental and a
/// batch history).
int LiveCellDiff(const data::Relation& a, const data::Relation& b) {
  EXPECT_EQ(a.size(), b.size());
  int diff = 0;
  for (data::TupleId t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a.live(t), b.live(t)) << "tombstones disagree at " << t;
    if (!a.live(t) || !b.live(t)) continue;
    for (data::AttributeId at = 0; at < a.schema().arity(); ++at) {
      if (a.tuple(t).value(at) != b.tuple(t).value(at)) ++diff;
    }
  }
  return diff;
}

/// Batch-cleans `relation` in place with a fresh tracked session and
/// returns its canonical journal CSV (the convergence invariant).
std::string BatchCanonicalCsv(const std::shared_ptr<CleanEngine>& engine,
                              data::Relation* relation) {
  Session session = engine->NewTrackedSession();
  auto run = session.Run(relation);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return CanonicalCsv(session.CanonicalJournal());
}

// --- The convergence pin: N single-tuple inserts == one batch run. --------

class DeltaConvergenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeltaConvergenceTest, StreamedInsertsConvergeToBatch) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/42);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 5;
  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }

  Session session = engine->NewTrackedSession();
  auto initial = session.Run(&incremental);
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  EXPECT_EQ(session.generation(), 0);

  for (int k = 0; k < kHeld; ++k) {
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    EXPECT_EQ(dr->generation, k + 1);
    ASSERT_EQ(dr->inserted_ids.size(), 1u);
    EXPECT_EQ(dr->inserted_ids[0], ds.dirty.size() - kHeld + k);
    EXPECT_GE(dr->affected, 1);
    EXPECT_GE(dr->refinement_rounds, 1);
  }
  EXPECT_EQ(session.generation(), kHeld);

  data::Relation batch = ds.dirty.Clone();
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);
}

TEST_P(DeltaConvergenceTest, OneBatchedDeltaConvergesToBatch) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/7);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 5;
  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }

  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  Delta delta;
  for (int k = 0; k < kHeld; ++k) {
    delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
  }
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_EQ(dr->generation, 1);
  EXPECT_EQ(dr->inserted_ids.size(), static_cast<size_t>(kHeld));

  data::Relation batch = ds.dirty.Clone();
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);
}

// A DELTA's per-phase statistics are the batch run's over the edited
// relation: the same phases, fixes, matches and counters.
TEST_P(DeltaConvergenceTest, DeltaStatsAreTheBatchRunsStats) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/17);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 4;
  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }
  data::Relation batch = incremental.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  Delta delta;
  delta.updates.emplace_back(5, ds.dirty.tuple(6));
  delta.deletes.push_back(9);
  for (int k = 0; k < kHeld; ++k) {
    delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
  }
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();

  batch.mutable_tuple(5) = ds.dirty.tuple(6);
  batch.EraseTuple(9);
  for (const data::Tuple& tup : delta.inserts) batch.AddTuple(tup);
  Session batch_session = engine->NewSession();
  auto run = batch_session.Run(&batch);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  ASSERT_EQ(dr->phases.size(), run->phases.size());
  for (size_t i = 0; i < run->phases.size(); ++i) {
    SCOPED_TRACE(run->phases[i].phase);
    EXPECT_EQ(dr->phases[i].phase, run->phases[i].phase);
    EXPECT_EQ(dr->phases[i].fixes, run->phases[i].fixes);
    EXPECT_EQ(dr->phases[i].matches, run->phases[i].matches);
    EXPECT_EQ(dr->phases[i].counters, run->phases[i].counters);
  }
  EXPECT_EQ(dr->total_fixes(), run->total_fixes());
  // The re-run's journal replaced the session's wholesale: it is the batch
  // run's, entry for entry.
  EXPECT_EQ(JournalCsv(session.journal()), JournalCsv(run->journal));
}

// A cancelled DELTA leaves its raw edits applied but uncleaned. The next
// DELTA re-cleans them even when it is empty, so the session still reaches
// the batch run over the edited relation.
TEST_P(DeltaConvergenceTest, EmptyDeltaAfterACancelledDeltaConverges) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/13);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 10;
  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  Delta delta;
  for (int k = 0; k < kHeld; ++k) {
    delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
  }
  // Three polls pass ApplyDelta's entry check, so the token trips inside
  // the re-run, after the edits were applied.
  auto token = std::make_shared<common::CancelToken>();
  token->CancelAfterChecksForTest(3);
  session.set_cancel_token(token);
  auto cancelled = session.ApplyDelta(delta);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  ASSERT_EQ(incremental.size(), ds.dirty.size());

  session.set_cancel_token(nullptr);
  auto dr = session.ApplyDelta(Delta{});
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_EQ(dr->affected, incremental.live_size());
  EXPECT_EQ(dr->refinement_rounds, 1);
  EXPECT_EQ(dr->generation, session.generation());

  data::Relation batch = ds.dirty.Clone();
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);

  // Once cleaned, an empty delta is a no-op again.
  auto noop = session.ApplyDelta(Delta{});
  ASSERT_TRUE(noop.ok()) << noop.status().ToString();
  EXPECT_EQ(noop->generation, dr->generation);
  EXPECT_EQ(noop->refinement_rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(Datasets, DeltaConvergenceTest,
                         ::testing::Values("HOSP", "DBLP", "TPCH"));

// --- A large batch: one re-run, the batch run by construction. ------------

class DeltaCrossoverTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeltaCrossoverTest, LargeBatchFallsBackToOneFullRerun) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/7);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 16;
  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  Delta delta;
  for (int k = 0; k < kHeld; ++k) {
    delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
  }
  delta.deletes.push_back(3);
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_EQ(dr->affected, incremental.live_size());
  EXPECT_GE(dr->refinement_rounds, 1);
  EXPECT_EQ(dr->generation, 1);

  data::Relation batch = ds.dirty.Clone();
  batch.EraseTuple(3);
  Session batch_session = engine->NewTrackedSession();
  auto batch_run = batch_session.Run(&batch);
  ASSERT_TRUE(batch_run.ok()) << batch_run.status().ToString();
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  // The re-run IS the batch run, provenance included.
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()),
            CanonicalCsv(batch_session.CanonicalJournal()));
  EXPECT_EQ(JournalCsv(session.journal()), JournalCsv(batch_run->journal));
}

// Every cell of the insert is a brand-new string: it shares no violation
// group and matches no master record. The re-run re-cleans every live
// tuple, yet the fixes of the others stay as they were: the batch run over
// the edited relation only adds the insert's own.
TEST_P(DeltaCrossoverTest, FreshInsertStaysIncremental) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/31);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());
  const std::string before = CanonicalCsv(session.CanonicalJournal());

  data::Tuple alien = ds.dirty.tuple(0);
  for (data::AttributeId a = 0; a < alien.arity(); ++a) {
    alien.set_value(a, data::Value("zz-fresh-" + std::to_string(a)));
    alien.set_confidence(a, 0.0);
    alien.set_mark(a, data::FixMark::kNone);
  }
  Delta delta;
  delta.inserts.push_back(alien);
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  ASSERT_EQ(dr->inserted_ids.size(), 1u);
  EXPECT_EQ(dr->affected, incremental.live_size());
  EXPECT_EQ(dr->refinement_rounds, 1);

  FixJournal others = session.CanonicalJournal();
  others.RemoveIf([&](const FixEntry& entry) {
    return entry.tuple == dr->inserted_ids[0];
  });
  EXPECT_EQ(CanonicalCsv(others), before);

  data::Relation batch = ds.dirty.Clone();
  batch.AddTuple(alien);
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);
}

INSTANTIATE_TEST_SUITE_P(Datasets, DeltaCrossoverTest,
                         ::testing::Values("HOSP", "DBLP", "TPCH"));

TEST(DeltaTest, IncrementalDeltasKeepOnlyCoveringEntries) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/42);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());
  const size_t entries_before = session.journal().size();
  const std::string fixes_before = CanonicalCsv(session.CanonicalJournal());
  const data::TupleId target = 4;
  auto count_entries = [&] {
    int n = 0;
    for (const FixEntry& entry : session.journal().entries()) {
      n += entry.tuple == target ? 1 : 0;
    }
    return n;
  };
  ASSERT_GT(count_entries(), 0);

  // Re-submitting a repaired tuple's own content re-cleans it to the same
  // repairs: the re-run's entries must replace, not join, the earlier ones.
  {
    Delta delta;
    delta.updates.emplace_back(target, ds.dirty.tuple(target));
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    EXPECT_EQ(session.journal().size(), entries_before);
    EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), fixes_before);
  }
  // Deleting it drops its entries.
  {
    Delta delta;
    delta.deletes.push_back(target);
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    EXPECT_EQ(count_entries(), 0);
  }

  data::Relation batch = ds.dirty.Clone();
  batch.EraseTuple(target);
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);
}

TEST(DeltaTest, FallbackKeepsTheJournalBounded) {
  constexpr int kDeltas = 20;
  constexpr int kPerDelta = 16;
  gen::Dataset ds =
      MakeDataset("HOSP", /*seed=*/13, /*num_tuples=*/120 + kDeltas * kPerDelta);
  auto engine = MakeEngine(ds);

  const int standing = ds.dirty.size() - kDeltas * kPerDelta;
  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < standing; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  for (int g = 0; g < kDeltas; ++g) {
    Delta delta;
    for (int k = 0; k < kPerDelta; ++k) {
      delta.inserts.push_back(ds.dirty.tuple(standing + g * kPerDelta + k));
    }
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  }

  // Each re-run replaced the journal wholesale: it holds one batch run's
  // entries, not one per delta.
  data::Relation batch = ds.dirty.Clone();
  Session batch_session = engine->NewSession();
  auto batch_run = batch_session.Run(&batch);
  ASSERT_TRUE(batch_run.ok()) << batch_run.status().ToString();
  EXPECT_EQ(JournalCsv(session.journal()), JournalCsv(batch_run->journal));
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
}

// --- Updates --------------------------------------------------------------

TEST(DeltaTest, ResolvingUpdateConvergesToBatch) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/11);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  // A curator hand-corrects tuple 3 to its ground-truth content.
  const data::TupleId target = 3;
  Delta delta;
  delta.updates.emplace_back(target, ds.clean.tuple(target));
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_GE(dr->affected, 1);

  data::Relation batch = ds.dirty.Clone();
  batch.mutable_tuple(target) = ds.clean.tuple(target);
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);
}

// --- Deletes and tombstones ----------------------------------------------

TEST(DeltaTest, DeleteThenReinsertConvergesToBatch) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/23);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  const data::TupleId victim = 2;
  {
    Delta delta;
    delta.deletes.push_back(victim);
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    EXPECT_FALSE(incremental.live(victim));
  }
  {
    // The same content comes back as a fresh row: ids are never recycled,
    // so it must land under a new id and re-clean like any insert.
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(victim));
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << dr.status().ToString();
    ASSERT_EQ(dr->inserted_ids.size(), 1u);
    EXPECT_EQ(dr->inserted_ids[0], ds.dirty.size());
  }

  data::Relation batch = ds.dirty.Clone();
  batch.EraseTuple(victim);
  batch.AddTuple(ds.dirty.tuple(victim));
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);
}

// A DELTA may update a tuple and delete it too: edits apply in the order
// updates, deletes, inserts, so the tuple ends dead. A dead tuple has
// nothing to re-clean, and fixes journaled for it would cover a tuple no
// batch run sees.
int EntriesFor(const FixJournal& journal, data::TupleId t) {
  int n = 0;
  for (const FixEntry& entry : journal.entries()) n += entry.tuple == t;
  return n;
}

TEST(DeltaTest, UpdatedAndDeletedTupleLeavesNoJournalEntries) {
  gen::GeneratorConfig config;
  config.num_tuples = 400;
  config.master_size = 300;
  config.seed = 1;
  gen::Dataset ds = gen::GenerateHosp(config);
  auto engine = MakeEngine(ds);
  data::Relation incremental(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < 300; ++t) {
    incremental.AddTuple(ds.dirty.tuple(t));
  }
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  const data::TupleId victim = 0;
  Delta delta;
  delta.updates.emplace_back(victim, ds.dirty.tuple(300));
  delta.deletes.push_back(victim);
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_FALSE(incremental.live(victim));
  EXPECT_EQ(EntriesFor(session.journal(), victim), 0);
}

TEST(DeltaTest, UpdatedAndDeletedLoneTupleIsNotAffected) {
  // fd: A -> B over five tuples in five groups: once tuple 0 is gone, no
  // live tuple shares a group with its old or its new content.
  auto schema = data::MakeSchema("r", {"A", "B"});
  auto master_schema = data::MakeSchema("m", {"X"});
  auto rules = rules::ParseRuleSet("CFD fd: A -> B\n", schema, master_schema);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  data::Relation master(master_schema);
  data::Tuple m(1);
  m.set_value(0, data::Value("m"));
  master.AddTuple(std::move(m));
  auto engine = EngineBuilder()
                    .WithDataSchema(schema)
                    .WithMaster(&master)
                    .WithRules(&rules.value())
                    .BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto row = [](const std::string& a, const std::string& b) {
    data::Tuple t(2);
    t.set_value(0, data::Value(a));
    t.set_value(1, data::Value(b));
    return t;
  };
  data::Relation d(schema);
  for (int i = 0; i < 5; ++i) {
    d.AddTuple(row("a" + std::to_string(i), "b" + std::to_string(i)));
  }
  Session session = (*engine)->NewTrackedSession();
  ASSERT_TRUE(session.Run(&d).ok());

  Delta delta;
  delta.updates.emplace_back(0, row("a9", "b9"));
  delta.deletes.push_back(0);
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_FALSE(d.live(0));
  EXPECT_EQ(dr->affected, d.live_size());  // the dead tuple is not counted
  EXPECT_EQ(EntriesFor(session.journal(), 0), 0);
}

// --- Fresh violation group ------------------------------------------------

TEST(DeltaTest, InsertIntoFreshViolationGroupStaysScoped) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/31);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  // A tuple whose every cell is a brand-new string shares no violation
  // group and matches no master record. The re-run still re-cleans every
  // live tuple, and its result is the batch run's.
  data::Tuple alien = ds.dirty.tuple(0);
  for (data::AttributeId a = 0; a < alien.arity(); ++a) {
    alien.set_value(a, data::Value("zz-unique-" + std::to_string(a)));
    alien.set_confidence(a, 0.0);
    alien.set_mark(a, data::FixMark::kNone);
  }
  Delta delta;
  delta.inserts.push_back(alien);
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_EQ(dr->affected, incremental.live_size());
  EXPECT_EQ(dr->refinement_rounds, 1);

  data::Relation batch = ds.dirty.Clone();
  batch.AddTuple(alien);
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(incremental, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);
}

// --- No-op and validation -------------------------------------------------

TEST(DeltaTest, EmptyDeltaIsANoOp) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/3, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());
  const std::string before = CanonicalCsv(session.CanonicalJournal());

  auto dr = session.ApplyDelta(Delta{});
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_EQ(dr->generation, 0);
  EXPECT_EQ(dr->affected, 0);
  EXPECT_EQ(dr->refinement_rounds, 0);
  EXPECT_EQ(session.generation(), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), before);
}

TEST(DeltaTest, InvalidEditsAreRejectedAtomically) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/3, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());
  const int size_before = incremental.size();
  const std::string journal_before = CanonicalCsv(session.CanonicalJournal());

  {
    Delta delta;
    delta.updates.emplace_back(incremental.size() + 5,
                               ds.dirty.tuple(0));
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Delta delta;
    delta.inserts.push_back(data::Tuple(incremental.schema().arity() + 1));
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Delta delta;
    delta.deletes.push_back(incremental.size());
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // A delta that mixes a valid insert with a bad delete must apply
    // nothing at all.
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(0));
    delta.deletes.push_back(incremental.size() + 1);
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // A delta deleting one tuple twice applies nothing either.
    Delta delta;
    delta.deletes = {1, 1};
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(incremental.live(1));
    EXPECT_EQ(session.generation(), 0);
  }
  {
    // Deleting a tombstone is an error too (double delete).
    Delta ok_delta;
    ok_delta.deletes.push_back(1);
    ASSERT_TRUE(session.ApplyDelta(ok_delta).ok());
    Delta again;
    again.deletes.push_back(1);
    auto dr = session.ApplyDelta(again);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
    Delta update_dead;
    update_dead.updates.emplace_back(1, ds.dirty.tuple(0));
    dr = session.ApplyDelta(update_dead);
    EXPECT_EQ(dr.status().code(), StatusCode::kInvalidArgument);
  }

  EXPECT_EQ(incremental.size(), size_before);  // failed edits applied nothing
  EXPECT_EQ(session.generation(), 1);          // only the valid delete landed
  // The journal shrank only by the deleted tuple's covering entries.
  EXPECT_LE(CanonicalCsv(session.CanonicalJournal()).size(),
            journal_before.size());
}

TEST(DeltaTest, ApplyDeltaRequiresATrackedRun) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/3, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  {
    // Untracked session: Run succeeds, ApplyDelta refuses.
    data::Relation d = ds.dirty.Clone();
    Session session = engine->NewSession();
    ASSERT_TRUE(session.Run(&d).ok());
    auto dr = session.ApplyDelta(Delta{});
    EXPECT_EQ(dr.status().code(), StatusCode::kFailedPrecondition);
  }
  {
    // Tracked session before its Run.
    Session session = engine->NewTrackedSession();
    Delta delta;
    delta.inserts.push_back(ds.dirty.tuple(0));
    auto dr = session.ApplyDelta(delta);
    EXPECT_EQ(dr.status().code(), StatusCode::kFailedPrecondition);
  }
  {
    // Empty session.
    Session session;
    auto dr = session.ApplyDelta(Delta{});
    EXPECT_EQ(dr.status().code(), StatusCode::kFailedPrecondition);
  }
}

// --- Concurrency (the TSan target) ---------------------------------------

TEST(DeltaTest, ConcurrentTrackedSessionsMatchSerial) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/42, /*num_tuples=*/150);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 3;
  auto build_initial = [&] {
    data::Relation initial(ds.dirty.schema_ptr());
    for (data::TupleId t = 0; t < ds.dirty.size() - kHeld; ++t) {
      initial.AddTuple(ds.dirty.tuple(t));
    }
    return initial;
  };

  // Serial reference.
  data::Relation serial = build_initial();
  std::string serial_csv;
  {
    Session session = engine->NewTrackedSession();
    ASSERT_TRUE(session.Run(&serial).ok());
    for (int k = 0; k < kHeld; ++k) {
      Delta delta;
      delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
      ASSERT_TRUE(session.ApplyDelta(delta).ok());
    }
    serial_csv = CanonicalCsv(session.CanonicalJournal());
  }

  // The same stream, in several tracked sessions at once on the shared
  // engine: each owns an independent relation, all hit the same warm match
  // environment and memos.
  constexpr int kThreads = 4;
  std::vector<data::Relation> relations;
  relations.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) relations.push_back(build_initial());
  std::vector<std::string> csvs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Session session = engine->NewTrackedSession();
      auto run = session.Run(&relations[static_cast<size_t>(i)]);
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      for (int k = 0; k < kHeld; ++k) {
        Delta delta;
        delta.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - kHeld + k));
        auto dr = session.ApplyDelta(delta);
        EXPECT_TRUE(dr.ok()) << dr.status().ToString();
      }
      csvs[static_cast<size_t>(i)] = CanonicalCsv(session.CanonicalJournal());
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(csvs[static_cast<size_t>(i)], serial_csv) << "thread " << i;
    EXPECT_EQ(LiveCellDiff(relations[static_cast<size_t>(i)], serial), 0)
        << "thread " << i;
  }
}

// --- Cooperative cancellation ---------------------------------------------
//
// The never-tears-state pin: a run cancelled at an ARBITRARY poll boundary
// either completes (journal and data byte-identical to an uncancelled run)
// or fails kCancelled with ZERO fixes applied to the caller's relation.

std::string RelationCsv(const data::Relation& r) {
  std::ostringstream out;
  EXPECT_TRUE(data::WriteCsv(out, r).ok());
  return out.str();
}

TEST(CancellationTest, CancelledRunNeverTearsState) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/7, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation baseline = ds.dirty.Clone();
  Session base_session = engine->NewSession();
  auto base_run = base_session.Run(&baseline);
  ASSERT_TRUE(base_run.ok()) << base_run.status().ToString();
  std::ostringstream base_journal;
  ASSERT_TRUE(base_run->journal.WriteCsv(base_journal).ok());
  const std::string dirty_csv = RelationCsv(ds.dirty);

  bool saw_cancel = false;
  bool saw_success = false;
  for (int64_t polls : {0, 1, 2, 3, 5, 8, 13, 21, 34, 200, 1000000}) {
    data::Relation working = ds.dirty.Clone();
    auto token = std::make_shared<common::CancelToken>();
    token->CancelAfterChecksForTest(polls);
    Session session = engine->NewSession();
    session.set_cancel_token(token);
    auto run = session.Run(&working);
    if (run.ok()) {
      saw_success = true;
      std::ostringstream journal;
      ASSERT_TRUE(run->journal.WriteCsv(journal).ok());
      EXPECT_EQ(journal.str(), base_journal.str()) << "polls=" << polls;
      EXPECT_EQ(RelationCsv(working), RelationCsv(baseline))
          << "polls=" << polls;
    } else {
      saw_cancel = true;
      EXPECT_EQ(run.status().code(), StatusCode::kCancelled)
          << run.status().ToString();
      EXPECT_EQ(RelationCsv(working), dirty_csv)
          << "cancelled run applied fixes (polls=" << polls << ")";
    }
  }
  // The poll spread must actually exercise both outcomes, or the property
  // above pinned nothing.
  EXPECT_TRUE(saw_cancel);
  EXPECT_TRUE(saw_success);
}

TEST(CancellationTest, TrackedSessionUsableAfterCancelledRun) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/11, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation initial(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size() - 1; ++t) {
    initial.AddTuple(ds.dirty.tuple(t));
  }
  Delta insert_last;
  insert_last.inserts.push_back(ds.dirty.tuple(ds.dirty.size() - 1));

  // Reference: an untainted tracked run + one insert delta.
  data::Relation ref_relation = initial.Clone();
  Session reference = engine->NewTrackedSession();
  ASSERT_TRUE(reference.Run(&ref_relation).ok());
  ASSERT_TRUE(reference.ApplyDelta(insert_last).ok());
  const std::string ref_fixes = CanonicalCsv(reference.CanonicalJournal());

  // A token tripped before the first poll cancels the tracked run...
  data::Relation relation = initial.Clone();
  Session session = engine->NewTrackedSession();
  auto token = std::make_shared<common::CancelToken>();
  token->Cancel("client gave up");
  session.set_cancel_token(token);
  auto cancelled = session.Run(&relation);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(RelationCsv(relation), RelationCsv(initial))
      << "cancelled tracked run must leave the relation untouched";

  // ...and resets tracking: deltas need a fresh Run first.
  EXPECT_FALSE(session.ApplyDelta(insert_last).ok());

  // The same Session object stays fully usable once the token is cleared.
  session.set_cancel_token(nullptr);
  auto rerun = session.Run(&relation);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  ASSERT_TRUE(session.ApplyDelta(insert_last).ok());
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), ref_fixes);
  EXPECT_EQ(LiveCellDiff(relation, ref_relation), 0);
}

// A repeated tracked Run that fails part-way leaves the session unrun: the
// earlier run's tracking state, journal and generation are gone, so
// ApplyDelta refuses until a Run succeeds, and the relation tracked before
// is never touched again.
TEST(DeltaTest, FailedTrackedRunLeavesTheSessionUnrun) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/3, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation first = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&first).ok());
  Delta erase;
  erase.deletes.push_back(0);
  ASSERT_TRUE(session.ApplyDelta(erase).ok());
  ASSERT_EQ(session.generation(), 1);
  const std::string first_csv = RelationCsv(first);

  // The token trips as eRepair starts, after cRepair has cleaned the
  // run's scratch copy of the second relation.
  auto token = std::make_shared<common::CancelToken>();
  session.set_cancel_token(token);
  session.set_progress_callback([&](const PhaseEvent& event) {
    if (event.kind == PhaseEvent::Kind::kPhaseStarted &&
        event.phase == PhaseName(Phase::kERepair)) {
      token->Cancel("stop at eRepair");
    }
  });
  data::Relation second = ds.dirty.Clone();
  auto failed = session.Run(&second);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(RelationCsv(second), RelationCsv(ds.dirty));

  session.set_cancel_token(nullptr);
  session.set_progress_callback(nullptr);
  Delta insert;
  insert.inserts.push_back(ds.dirty.tuple(0));
  EXPECT_EQ(session.ApplyDelta(insert).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.ApplyDelta(Delta{}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(session.journal().empty());
  EXPECT_EQ(session.generation(), 0);
  EXPECT_EQ(RelationCsv(first), first_csv);

  // A Run that succeeds tracks again.
  ASSERT_TRUE(session.Run(&second).ok());
  ASSERT_TRUE(session.ApplyDelta(insert).ok());
  data::Relation batch = ds.dirty.Clone();
  batch.AddTuple(ds.dirty.tuple(0));
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(second, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);
}

TEST(CancellationTest, CancelledFullRerunKeepsOnlyTheRawEdits) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/7);
  auto engine = MakeEngine(ds);

  constexpr int kHeld = 16;
  const int standing = ds.dirty.size() - kHeld;
  data::Relation initial(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < standing; ++t) {
    initial.AddTuple(ds.dirty.tuple(t));
  }
  Delta delta;
  for (int k = 0; k < kHeld; ++k) {
    delta.inserts.push_back(ds.dirty.tuple(standing + k));
  }

  // From one poll on, the token passes ApplyDelta's entry check (which
  // would fail before any edit is applied) and trips inside the re-run.
  bool saw_cancel = false;
  bool saw_success = false;
  for (int64_t polls : {1, 3, 8, 21, 55, 1000000}) {
    data::Relation relation = initial.Clone();
    Session session = engine->NewTrackedSession();
    ASSERT_TRUE(session.Run(&relation).ok());
    data::Relation expected = relation.Clone();
    for (const data::Tuple& tup : delta.inserts) expected.AddTuple(tup);
    const std::string journal_before = CanonicalCsv(session.CanonicalJournal());

    auto token = std::make_shared<common::CancelToken>();
    token->CancelAfterChecksForTest(polls);
    session.set_cancel_token(token);
    auto dr = session.ApplyDelta(delta);
    if (dr.ok()) {
      saw_success = true;
      EXPECT_EQ(dr->refinement_rounds, 1) << "polls=" << polls;
      data::Relation batch = ds.dirty.Clone();
      EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()),
                BatchCanonicalCsv(engine, &batch))
          << "polls=" << polls;
    } else {
      saw_cancel = true;
      EXPECT_EQ(dr.status().code(), StatusCode::kCancelled)
          << dr.status().ToString();
      EXPECT_EQ(RelationCsv(relation), RelationCsv(expected))
          << "cancelled full re-run moved more than the raw edits (polls="
          << polls << ")";
      EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), journal_before)
          << "polls=" << polls;
    }
  }
  EXPECT_TRUE(saw_cancel);
  EXPECT_TRUE(saw_success);
}

// --- Progress and repeated runs --------------------------------------------

// ApplyDelta's re-run reports every phase to the progress observer, on the
// scratch copy it cleans; the tracked relation ends as that copy did. A
// no-op delta runs no phase.
TEST(DeltaTest, ProgressCallbackObservesTheRerun) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/3, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation incremental = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&incremental).ok());

  std::vector<std::string> seen;
  std::string last_finished_csv;
  bool saw_tracked = false;
  session.set_progress_callback([&](const PhaseEvent& event) {
    const bool started = event.kind == PhaseEvent::Kind::kPhaseStarted;
    seen.push_back((started ? "start " : "finish ") +
                   std::string(event.phase));
    EXPECT_EQ(event.total, static_cast<int>(engine->phases().size()));
    EXPECT_EQ(event.stats == nullptr, started);
    saw_tracked = saw_tracked || event.data == &incremental;
    if (!started) last_finished_csv = RelationCsv(*event.data);
  });

  Delta delta;
  delta.updates.emplace_back(0, ds.dirty.tuple(1));
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();

  std::vector<std::string> expected;
  for (Phase phase : engine->phases()) {
    const std::string name(PhaseName(phase));
    expected.push_back("start " + name);
    expected.push_back("finish " + name);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_FALSE(saw_tracked);
  EXPECT_EQ(RelationCsv(incremental), last_finished_csv);

  seen.clear();
  ASSERT_TRUE(session.ApplyDelta(Delta{}).ok());
  EXPECT_TRUE(seen.empty());
}

// Tracking changes what a Run keeps, not what it repairs: a tracked and an
// untracked Run over the same relation end with the same cells and fixes.
TEST(DeltaTest, TrackedAndUntrackedRunsRepairAlike) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/13, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation tracked = ds.dirty.Clone();
  Session tracked_session = engine->NewTrackedSession();
  auto tracked_run = tracked_session.Run(&tracked);
  ASSERT_TRUE(tracked_run.ok()) << tracked_run.status().ToString();
  data::Relation plain = ds.dirty.Clone();
  Session plain_session = engine->NewSession();
  auto plain_run = plain_session.Run(&plain);
  ASSERT_TRUE(plain_run.ok()) << plain_run.status().ToString();

  EXPECT_NE(RelationCsv(plain), RelationCsv(ds.dirty));
  EXPECT_EQ(RelationCsv(tracked), RelationCsv(plain));
  std::ostringstream tracked_journal;
  std::ostringstream plain_journal;
  ASSERT_TRUE(tracked_run->journal.WriteCsv(tracked_journal).ok());
  ASSERT_TRUE(plain_run->journal.WriteCsv(plain_journal).ok());
  EXPECT_EQ(tracked_journal.str(), plain_journal.str());
  EXPECT_EQ(CanonicalCsv(tracked_session.CanonicalJournal()),
            CanonicalCsv(plain_run->journal));
  EXPECT_TRUE(plain_session.journal().empty());
}

// A tracked Run keeps the caller's pre-cleaning relation as the pristine
// copy that ApplyDelta re-cleans from: re-submitting a repaired tuple's
// original content changes nothing, so the re-run reproduces the Run's
// repaired relation and journal.
TEST(DeltaTest, TrackedRunReCleansFromThePreCleaningValues) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/5, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  data::Relation relation = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&relation).ok());
  const std::string run_csv = RelationCsv(relation);
  const std::string run_fixes = CanonicalCsv(session.CanonicalJournal());

  data::TupleId repaired = -1;
  for (data::TupleId t = 0; t < relation.size() && repaired < 0; ++t) {
    for (data::AttributeId a = 0; a < relation.schema().arity(); ++a) {
      if (relation.tuple(t).value(a) != ds.dirty.tuple(t).value(a)) {
        repaired = t;
        break;
      }
    }
  }
  ASSERT_GE(repaired, 0) << "the run repaired no tuple";

  Delta delta;
  delta.updates.emplace_back(repaired, ds.dirty.tuple(repaired));
  auto dr = session.ApplyDelta(delta);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_EQ(dr->generation, 1);
  EXPECT_EQ(RelationCsv(relation), run_csv);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), run_fixes);
}

// A repeated tracked Run restarts tracking on its own relation: generation
// 0 and the batch journal, and later DELTAs edit that relation only.
TEST(DeltaTest, RepeatedRunRestartsTracking) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/19, /*num_tuples=*/120);
  auto engine = MakeEngine(ds);

  constexpr int kHalf = 60;
  data::Relation first(ds.dirty.schema_ptr());
  data::Relation second(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < ds.dirty.size(); ++t) {
    (t < kHalf ? first : second).AddTuple(ds.dirty.tuple(t));
  }
  const data::Relation second_dirty = second.Clone();

  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&first).ok());
  Delta erase;
  erase.deletes.push_back(0);
  ASSERT_TRUE(session.ApplyDelta(erase).ok());
  EXPECT_EQ(session.generation(), 1);
  const std::string first_csv = RelationCsv(first);

  ASSERT_TRUE(session.Run(&second).ok());
  EXPECT_EQ(session.generation(), 0);
  data::Relation second_batch = second_dirty.Clone();
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()),
            BatchCanonicalCsv(engine, &second_batch));

  Delta insert;
  insert.inserts.push_back(ds.dirty.tuple(0));
  auto dr = session.ApplyDelta(insert);
  ASSERT_TRUE(dr.ok()) << dr.status().ToString();
  EXPECT_EQ(dr->generation, 1);
  EXPECT_EQ(dr->inserted_ids,
            std::vector<data::TupleId>{static_cast<data::TupleId>(
                ds.dirty.size() - kHalf)});
  EXPECT_EQ(RelationCsv(first), first_csv);

  data::Relation batch = second_dirty.Clone();
  batch.AddTuple(ds.dirty.tuple(0));
  const std::string batch_csv = BatchCanonicalCsv(engine, &batch);
  EXPECT_EQ(LiveCellDiff(second, batch), 0);
  EXPECT_EQ(CanonicalCsv(session.CanonicalJournal()), batch_csv);
}

}  // namespace
}  // namespace uniclean
