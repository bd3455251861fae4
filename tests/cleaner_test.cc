// Tests for the run API, EngineBuilder → CleanEngine → Session: builder
// validation, phase pipeline execution, progress observation, failure
// annotation, fix journaling, and parity with the direct core-phase
// sequence.

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/rng.h"
#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "data/csv.h"
#include "gen/dataset.h"
#include "paper_example.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

using data::Relation;
using data::Value;

const char kPaperRules[] =
    "CFD phi1: AC='131' -> city='Edi'\n"
    "CFD phi2: AC='020' -> city='Ldn'\n"
    "CFD phi3: city, phn -> St, AC, post\n"
    "CFD phi4: FN='Bob' -> FN='Robert'\n"
    "MD psi: LN=LN & city=city & St=St & post=zip & FN ~jw:0.6 FN "
    "-> FN:=FN, phn:=tel\n";

EngineBuilder PaperBuilder() {
  EngineBuilder builder;
  builder.WithDataSchema(uniclean::testing::TranSchema())
      .WithMaster(uniclean::testing::CardMaster())
      .WithRuleText(kPaperRules)
      .WithEta(0.8);
  return builder;
}

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

TEST(EngineBuilderValidationTest, RejectsEtaOutOfRange) {
  for (double eta : {-0.1, 1.5}) {
    auto engine = PaperBuilder().WithEta(eta).BuildEngine();
    ASSERT_FALSE(engine.ok()) << "eta = " << eta;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineBuilderValidationTest, RejectsNegativeDelta1) {
  auto engine = PaperBuilder().WithDelta1(-1).BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderValidationTest, RejectsDelta2OutOfRange) {
  auto engine = PaperBuilder().WithDelta2(2.0).BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderValidationTest, RejectsMissingMaster) {
  auto engine = EngineBuilder()
                    .WithDataSchema(uniclean::testing::TranSchema())
                    .WithRuleText(kPaperRules)
                    .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderValidationTest, RejectsMissingRules) {
  auto engine = EngineBuilder()
                    .WithDataSchema(uniclean::testing::TranSchema())
                    .WithMaster(uniclean::testing::CardMaster())
                    .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderValidationTest, RejectsSchemaMismatchBetweenRulesAndData) {
  // Rules normalized against the tran/card schemas, data with a different
  // schema: the builder must reject instead of cleaning garbage.
  auto rules = rules::ParseRuleSet(kPaperRules, uniclean::testing::TranSchema(),
                                   uniclean::testing::CardSchema());
  ASSERT_TRUE(rules.ok());
  auto engine = EngineBuilder()
                    .WithDataSchema(data::MakeSchema("other", {"X", "Y"}))
                    .WithMaster(uniclean::testing::CardMaster())
                    .WithRules(std::move(rules).value())
                    .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderValidationTest, RejectsMasterSchemaMismatch) {
  auto rules = rules::ParseRuleSet(kPaperRules, uniclean::testing::TranSchema(),
                                   uniclean::testing::CardSchema());
  ASSERT_TRUE(rules.ok());
  auto engine = EngineBuilder()
                    .WithDataSchema(uniclean::testing::TranSchema())
                    .WithMaster(uniclean::testing::TranDirty())  // wrong side
                    .WithRules(std::move(rules).value())
                    .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderValidationTest,
     RejectsInconsistentRulesWhenCheckingRequested) {
  const char kContradiction[] =
      "CFD c1: AC -> city='Edi'\n"
      "CFD c2: AC -> city='Ldn'\n";
  auto unchecked = PaperBuilder().WithRuleText(kContradiction).BuildEngine();
  EXPECT_TRUE(unchecked.ok()) << unchecked.status().ToString();

  auto checked = PaperBuilder()
                     .WithRuleText(kContradiction)
                     .CheckConsistency()
                     .BuildEngine();
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderValidationTest, RejectsBadRuleSyntaxWithParserStatus) {
  auto engine = PaperBuilder().WithRuleText("CFD broken").BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderValidationTest, MissingInputFilesReportNotFound) {
  const std::string missing = ::testing::TempDir() + "/no_such_file";
  auto no_master = PaperBuilder().WithMasterCsv(missing + ".csv").BuildEngine();
  ASSERT_FALSE(no_master.ok());
  EXPECT_EQ(no_master.status().code(), StatusCode::kNotFound);

  auto no_rules = PaperBuilder().WithRulesFile(missing + ".txt").BuildEngine();
  ASSERT_FALSE(no_rules.ok());
  EXPECT_EQ(no_rules.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Running the pipeline
// ---------------------------------------------------------------------------

TEST(SessionPipelineTest, RunsPaperExampleAndJournalsEveryFix) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Relation d = uniclean::testing::TranDirty();
  Session session = (*engine)->NewSession();
  auto result = session.Run(&d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The reference: the same pipeline through the direct phase calls.
  Relation reference = uniclean::testing::TranDirty();
  auto rules =
      rules::ParseRuleSet(kPaperRules, uniclean::testing::TranSchema(),
                          uniclean::testing::CardSchema());
  ASSERT_TRUE(rules.ok());
  Relation master = uniclean::testing::CardMaster();
  core::MatchEnvironment env(rules.value(), master);
  core::CRepairOptions copts;
  copts.eta = 0.8;
  auto cstats = core::CRepair(&reference, env, copts);
  core::ERepairOptions eopts;
  eopts.eta = 0.8;
  auto estats = core::ERepair(&reference, env, eopts);
  auto hstats = core::HRepair(&reference, env, {});

  // Same repaired relation, and per-phase journal counts equal to the
  // engines' fix counts.
  EXPECT_EQ(d.CellDiffCount(reference), 0);
  EXPECT_EQ(result->journal.CountForPhase(PhaseName(Phase::kCRepair)),
            cstats.deterministic_fixes);
  EXPECT_EQ(result->journal.CountForPhase(PhaseName(Phase::kERepair)),
            estats.reliable_fixes);
  EXPECT_EQ(result->journal.CountForPhase(PhaseName(Phase::kHRepair)),
            hstats.possible_fixes);
  EXPECT_EQ(result->total_fixes(), static_cast<int>(result->journal.size()));
  EXPECT_GT(result->journal.size(), 0u);

  // Every journal entry names an existing attribute, a phase, and records a
  // real change.
  for (const FixEntry& fix : result->journal.entries()) {
    EXPECT_GE(fix.tuple, 0);
    EXPECT_LT(fix.tuple, d.size());
    EXPECT_EQ(fix.attribute, d.schema().attribute_name(fix.attr));
    EXPECT_FALSE(fix.phase.empty());
    EXPECT_NE(fix.old_value, fix.new_value);
  }
}

TEST(SessionPipelineTest, PhaseSubsetRunsOnlySelectedPhases) {
  auto engine =
      PaperBuilder().WithDefaultPhases(true, false, false).BuildEngine();
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->phases(), std::vector<Phase>{Phase::kCRepair});
  Session session = (*engine)->NewSession();
  Relation d = uniclean::testing::TranDirty();
  auto result = session.Run(&d);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->phases.size(), 1u);
  EXPECT_EQ(result->phases[0].phase, "cRepair");
  EXPECT_EQ(result->journal.CountForPhase(PhaseName(Phase::kERepair)), 0);
  EXPECT_EQ(result->journal.CountForPhase(PhaseName(Phase::kHRepair)), 0);
}

TEST(SessionPipelineTest, ProgressCallbackSeesEveryPhaseInOrder) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  std::vector<std::string> events;
  session.set_progress_callback([&](const PhaseEvent& event) {
    std::string tag =
        event.kind == PhaseEvent::Kind::kPhaseStarted ? "start:" : "finish:";
    events.push_back(tag + std::string(event.phase));
    EXPECT_EQ(event.total, 3);
    EXPECT_NE(event.data, nullptr);
    if (event.kind == PhaseEvent::Kind::kPhaseFinished) {
      ASSERT_NE(event.stats, nullptr);
      EXPECT_EQ(event.stats->phase, event.phase);
    }
  });
  Relation d = uniclean::testing::TranDirty();
  ASSERT_TRUE(session.Run(&d).ok());
  EXPECT_EQ(events,
            (std::vector<std::string>{"start:cRepair", "finish:cRepair",
                                      "start:eRepair", "finish:eRepair",
                                      "start:hRepair", "finish:hRepair"}));
}

TEST(SessionPipelineTest, PhasesCleanACopyThatReplacesTheCallersRelation) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  std::vector<const Relation*> seen;
  session.set_progress_callback(
      [&](const PhaseEvent& event) { seen.push_back(event.data); });

  // Without a cancel token the phases clean a copy, which replaces the
  // caller's relation on success: Example 1.1's first deterministic fix
  // lands there.
  Relation d = uniclean::testing::TranDirty();
  ASSERT_TRUE(session.Run(&d).ok());
  ASSERT_FALSE(seen.empty());
  for (const Relation* data : seen) EXPECT_NE(data, &d);
  data::AttributeId city = d.schema().MustFindAttribute("city");
  EXPECT_EQ(d.tuple(0).value(city), Value("Edi"));

  // With a token armed the run takes the same path and repairs the same
  // cells.
  seen.clear();
  session.set_cancel_token(std::make_shared<common::CancelToken>());
  Relation guarded = uniclean::testing::TranDirty();
  ASSERT_TRUE(session.Run(&guarded).ok());
  ASSERT_FALSE(seen.empty());
  for (const Relation* data : seen) EXPECT_NE(data, &guarded);
  EXPECT_EQ(guarded.tuple(0).value(city), Value("Edi"));
  EXPECT_EQ(guarded.CellDiffCount(d), 0);
}

// Every progress event of one run reports the same working copy, with or
// without a cancel token.
TEST(SessionPipelineTest, EveryEventOfARunSeesOneWorkingCopy) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  std::vector<const Relation*> seen;
  session.set_progress_callback(
      [&](const PhaseEvent& event) { seen.push_back(event.data); });
  for (bool guarded : {false, true}) {
    SCOPED_TRACE(guarded ? "with a token" : "without a token");
    if (guarded) {
      session.set_cancel_token(std::make_shared<common::CancelToken>());
    }
    seen.clear();
    Relation d = uniclean::testing::TranDirty();
    ASSERT_TRUE(session.Run(&d).ok());
    ASSERT_EQ(seen.size(), 6u);
    for (const Relation* data : seen) EXPECT_EQ(data, seen.front());
    EXPECT_NE(seen.front(), &d);
  }
}

// The caller's relation changes only when the run succeeds: while the
// phases run, the working copy already carries cRepair's fix of t1's city
// and the caller's relation still holds the dirty value.
TEST(SessionPipelineTest, CallersRelationChangesOnlyWhenTheRunSucceeds) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  Relation d = uniclean::testing::TranDirty();
  const data::AttributeId city = d.schema().MustFindAttribute("city");
  std::vector<Value> working;
  std::vector<Value> callers;
  session.set_progress_callback([&](const PhaseEvent& event) {
    if (event.kind != PhaseEvent::Kind::kPhaseFinished) return;
    working.push_back(event.data->tuple(0).value(city));
    callers.push_back(d.tuple(0).value(city));
  });
  ASSERT_TRUE(session.Run(&d).ok());
  ASSERT_EQ(working.size(), 3u);
  ASSERT_EQ(callers.size(), 3u);
  for (size_t i = 0; i < working.size(); ++i) {
    EXPECT_EQ(working[i], Value("Edi")) << "after phase " << i;
    EXPECT_EQ(callers[i], Value("Ldn")) << "after phase " << i;
  }
  EXPECT_EQ(d.tuple(0).value(city), Value("Edi"));
}

TEST(SessionPipelineTest, JournalPhaseCountsMatchCorePhaseStatsOnHospSample) {
  // On the HOSP sample, a session's journal, per-phase stats and matches
  // agree with the three core entry points run in paper order over one
  // shared match environment.
  gen::GeneratorConfig config;
  config.num_tuples = 80;
  config.master_size = 40;
  config.seed = 7;
  gen::Dataset ds = gen::GenerateHosp(config);

  Relation reference = ds.dirty.Clone();
  core::MatchEnvironment env(ds.rules, ds.master);
  core::CRepairOptions copts;
  copts.eta = 1.0;
  auto cstats = core::CRepair(&reference, env, copts);
  core::ERepairOptions eopts;
  eopts.eta = 1.0;
  auto estats = core::ERepair(&reference, env, eopts);
  auto hstats = core::HRepair(&reference, env, {});

  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Relation d = ds.dirty.Clone();
  Session session = (*engine)->NewSession();
  auto result = session.Run(&d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->journal.CountForPhase(PhaseName(Phase::kCRepair)),
            cstats.deterministic_fixes);
  EXPECT_EQ(result->journal.CountForPhase(PhaseName(Phase::kERepair)),
            estats.reliable_fixes);
  EXPECT_EQ(result->journal.CountForPhase(PhaseName(Phase::kHRepair)),
            hstats.possible_fixes);
  ASSERT_EQ(result->phases.size(), 3u);
  for (const PhaseStats& stats : result->phases) {
    EXPECT_EQ(stats.fixes, result->journal.CountForPhase(stats.phase))
        << stats.phase;
  }
  EXPECT_GT(result->total_fixes(), 0);
  EXPECT_EQ(d.CellDiffCount(reference), 0);

  std::vector<std::pair<data::TupleId, data::TupleId>> matches;
  for (const auto* md_matches :
       {&cstats.md_matches, &estats.md_matches, &hstats.md_matches}) {
    matches.insert(matches.end(), md_matches->begin(), md_matches->end());
  }
  std::sort(matches.begin(), matches.end());
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
  EXPECT_FALSE(matches.empty());
  EXPECT_EQ(result->AllMatches(), matches);
}

TEST(SessionPipelineTest, CsvLoadedDataReproducesTheInMemoryRun) {
  // A one-shot job loads D and its confidences from files itself and runs
  // one session over them; the repair equals the in-memory run's.
  const Relation original = uniclean::testing::TranDirty();
  const std::string data_path = ::testing::TempDir() + "/tran_dirty.csv";
  const std::string conf_path = ::testing::TempDir() + "/tran_conf.csv";
  ASSERT_TRUE(data::WriteCsvFile(data_path, original).ok());
  ASSERT_TRUE(data::WriteConfidenceCsvFile(conf_path, original).ok());

  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto journal_csv = [&](Relation* d) {
    auto result = (*engine)->NewSession().Run(d);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::ostringstream csv;
    if (result.ok()) {
      EXPECT_TRUE(result->journal.WriteCsv(csv).ok());
    }
    return csv.str();
  };

  Relation in_memory = original.Clone();
  const std::string expected = journal_csv(&in_memory);

  auto loaded = data::ReadCsvFile(data_path, uniclean::testing::TranSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Relation without_confidences = loaded->Clone();
  Status status = data::ReadConfidenceCsvFile(conf_path, &*loaded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(journal_csv(&*loaded), expected);
  EXPECT_EQ(loaded->CellDiffCount(in_memory), 0);

  // The confidences matter: without them no cell is asserted, so cRepair
  // has nothing to propagate and the run differs.
  EXPECT_NE(journal_csv(&without_confidences), expected);
}

// ---------------------------------------------------------------------------
// Phase failures
// ---------------------------------------------------------------------------

// A phase that fails aborts the pipeline, and its status names the phase:
// here the token trips as eRepair starts, so eRepair's engine unwinds.
TEST(SessionPipelineTest, FailingPhaseAbortsAndAnnotatesStatus) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  auto token = std::make_shared<common::CancelToken>();
  session.set_cancel_token(token);
  session.set_progress_callback([&](const PhaseEvent& event) {
    if (event.kind == PhaseEvent::Kind::kPhaseStarted &&
        event.phase == PhaseName(Phase::kERepair)) {
      token->Cancel("stop at eRepair");
    }
  });
  Relation d = uniclean::testing::TranDirty();
  auto result = session.Run(&d);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_NE(result.status().message().find("phase 'eRepair'"),
            std::string::npos)
      << result.status().ToString();
}

// A failed run applies no fix: the token trips as eRepair starts, after
// cRepair has fixed t1's city in the working copy, and the caller's relation
// keeps every dirty value. The session then cleans it as a fresh one would.
TEST(SessionPipelineTest, FailedRunLeavesTheCallersRelationAsItWas) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  auto token = std::make_shared<common::CancelToken>();
  session.set_cancel_token(token);
  Relation d = uniclean::testing::TranDirty();
  const data::AttributeId city = d.schema().MustFindAttribute("city");
  Value working_city;
  session.set_progress_callback([&](const PhaseEvent& event) {
    if (event.kind == PhaseEvent::Kind::kPhaseStarted &&
        event.phase == PhaseName(Phase::kERepair)) {
      working_city = event.data->tuple(0).value(city);
      token->Cancel("stop at eRepair");
    }
  });
  auto failed = session.Run(&d);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(working_city, Value("Edi"));
  EXPECT_EQ(d.CellDiffCount(uniclean::testing::TranDirty()), 0);

  session.set_cancel_token(nullptr);
  session.set_progress_callback(nullptr);
  ASSERT_TRUE(session.Run(&d).ok());
  Relation fresh = uniclean::testing::TranDirty();
  ASSERT_TRUE((*engine)->NewSession().Run(&fresh).ok());
  EXPECT_GT(fresh.CellDiffCount(uniclean::testing::TranDirty()), 0);
  EXPECT_EQ(d.CellDiffCount(fresh), 0);
}

// The pipeline polls the token between phases: a token tripped once
// cRepair finishes stops the run before eRepair starts.
TEST(SessionPipelineTest, ProgressStopsAtAFailingPhase) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  auto token = std::make_shared<common::CancelToken>();
  session.set_cancel_token(token);
  std::vector<std::string> events;
  session.set_progress_callback([&](const PhaseEvent& event) {
    std::string tag =
        event.kind == PhaseEvent::Kind::kPhaseStarted ? "start:" : "finish:";
    events.push_back(tag + std::to_string(event.index) + "/" +
                     std::to_string(event.total) + ":" +
                     std::string(event.phase));
    if (event.kind == PhaseEvent::Kind::kPhaseFinished &&
        event.phase == PhaseName(Phase::kCRepair)) {
      token->Cancel("stop after cRepair");
    }
  });
  Relation d = uniclean::testing::TranDirty();
  auto result = session.Run(&d);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(events, (std::vector<std::string>{"start:0/3:cRepair",
                                              "finish:0/3:cRepair"}));
}

// ---------------------------------------------------------------------------
// Phase selection and per-run phase state
// ---------------------------------------------------------------------------

// Without WithDefaultPhases an engine runs the paper's three phases, in the
// paper's order, under the names the journal and the stats carry.
TEST(SessionPipelineTest, DefaultPipelineIsThePapersThreePhases) {
  EXPECT_EQ(PhaseName(Phase::kCRepair), "cRepair");
  EXPECT_EQ(PhaseName(Phase::kERepair), "eRepair");
  EXPECT_EQ(PhaseName(Phase::kHRepair), "hRepair");
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->phases(),
            (std::vector<Phase>{Phase::kCRepair, Phase::kERepair,
                                Phase::kHRepair}));
  Relation d = uniclean::testing::TranDirty();
  auto result = (*engine)->NewSession().Run(&d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->phases.size(), 3u);
  EXPECT_EQ(result->phases[0].phase, "cRepair");
  EXPECT_EQ(result->phases[1].phase, "eRepair");
  EXPECT_EQ(result->phases[2].phase, "hRepair");
}

// WithDefaultPhases selects rather than adds: the last call wins, and the
// selected phases run in the paper's order.
TEST(SessionPipelineTest, LastPhaseSelectionWins) {
  auto engine = PaperBuilder()
                    .WithDefaultPhases(true, false, false)
                    .WithDefaultPhases(false, true, true)
                    .BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->phases(),
            (std::vector<Phase>{Phase::kERepair, Phase::kHRepair}));
  Relation d = uniclean::testing::TranDirty();
  auto result = (*engine)->NewSession().Run(&d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->phases.size(), 2u);
  EXPECT_EQ(result->phases[0].phase, "eRepair");
  EXPECT_EQ(result->phases[1].phase, "hRepair");
  EXPECT_EQ(result->journal.CountForPhase(PhaseName(Phase::kCRepair)), 0);
}

// Sessions of one engine share its rules, master and indexes, but no phase
// state: every run of every session reports the same per-phase fixes,
// matches and counters, and journals the same fixes.
TEST(SessionPipelineTest, SessionsShareNoPhaseState) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto outcome = [](Session* session) {
    Relation d = uniclean::testing::TranDirty();
    auto result = session->Run(&d);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::ostringstream out;
    if (!result.ok()) return out.str();
    for (const PhaseStats& stats : result->phases) {
      out << stats.phase << " fixes=" << stats.fixes;
      for (const auto& [t, m] : stats.matches) out << " " << t << "~" << m;
      for (const auto& [name, value] : stats.counters) {
        out << " " << name << "=" << value;
      }
      out << "\n";
    }
    EXPECT_TRUE(result->journal.WriteCsv(out).ok());
    return out.str();
  };
  Session first = (*engine)->NewSession();
  Session second = (*engine)->NewSession();
  const std::string once = outcome(&first);
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(outcome(&first), once);
  EXPECT_EQ(outcome(&second), once);
  EXPECT_EQ(outcome(&first), once);
}

TEST(SessionPipelineTest, EmptyPipelineLeavesDataUntouched) {
  auto engine =
      PaperBuilder().WithDefaultPhases(false, false, false).BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->phases().empty());
  Relation d = uniclean::testing::TranDirty();
  auto result = (*engine)->NewSession().Run(&d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->phases.empty());
  EXPECT_EQ(result->journal.size(), 0u);
  EXPECT_EQ(result->total_fixes(), 0);
  EXPECT_EQ(d.CellDiffCount(uniclean::testing::TranDirty()), 0);
}

// ---------------------------------------------------------------------------
// FixJournal serialization
// ---------------------------------------------------------------------------

TEST(FixJournalTest, TextAndCsvSerialization) {
  FixJournal journal;
  FixEntry a;
  a.tuple = 2;
  a.attr = 3;
  a.attribute = "city";
  a.old_value = Value("Edi, UK");  // needs CSV quoting
  a.new_value = Value("Ldn");
  a.phase = "cRepair";
  a.rule = "phi2";
  journal.Append(a);
  FixEntry b;
  b.tuple = 4;
  b.attr = 5;
  b.attribute = "post";
  b.old_value = Value("WC1E \"7HX\"");
  b.new_value = Value::Null();
  b.phase = "hRepair";
  journal.Append(b);

  std::ostringstream text;
  ASSERT_TRUE(journal.WriteText(text).ok());
  EXPECT_EQ(text.str(),
            "row 2 city: 'Edi, UK' -> 'Ldn' [cRepair phi2]\n"
            "row 4 post: 'WC1E \"7HX\"' -> '\\N' [hRepair]\n");

  std::ostringstream csv;
  ASSERT_TRUE(journal.WriteCsv(csv).ok());
  EXPECT_EQ(csv.str(),
            "tuple,attribute,old,new,phase,rule\n"
            "2,city,\"Edi, UK\",Ldn,cRepair,phi2\n"
            "4,post,\"WC1E \"\"7HX\"\"\",\\N,hRepair,\n");

  EXPECT_EQ(journal.CountForPhase("cRepair"), 1);
  EXPECT_EQ(journal.CountForPhase("eRepair"), 0);
  auto counts = journal.CountsByPhase();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], (std::pair<std::string, int>{"cRepair", 1}));
  EXPECT_EQ(counts[1], (std::pair<std::string, int>{"hRepair", 1}));
}

TEST(FixJournalTest, JournalCsvRoundTripsThroughCsvReader) {
  // The journal's CSV quoting must agree with the library's own reader.
  FixJournal journal;
  FixEntry fix;
  fix.tuple = 0;
  fix.attr = 0;
  fix.attribute = "A";
  fix.old_value = Value("x,\"y\",z");
  fix.new_value = Value::Null();
  fix.phase = "p";
  fix.rule = "r";
  journal.Append(fix);
  std::string path = ::testing::TempDir() + "/journal_roundtrip.csv";
  ASSERT_TRUE(journal.WriteCsvFile(path).ok());

  auto schema =
      data::MakeSchema("journal",
                       {"tuple", "attribute", "old", "new", "phase", "rule"});
  auto read = data::ReadCsvFile(path, schema);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), 1);
  EXPECT_EQ(read->tuple(0).value(1), Value("A"));
  EXPECT_EQ(read->tuple(0).value(2), Value("x,\"y\",z"));
  EXPECT_TRUE(read->tuple(0).value(3).is_null());
  EXPECT_EQ(read->tuple(0).value(4), Value("p"));
  EXPECT_EQ(read->tuple(0).value(5), Value("r"));
}

TEST(FixJournalTest, ReadCsvRoundTripsCommasQuotesAndNewlines) {
  FixJournal journal;
  FixEntry fix;
  fix.tuple = 7;
  fix.attr = 1;
  fix.attribute = "name";
  fix.old_value = Value("a,\"b\"");  // the RFC-4180 acid test
  fix.new_value = Value("line1\nline2");
  fix.phase = "eRepair";
  fix.rule = "md,1";
  journal.Append(fix);
  FixEntry null_fix;
  null_fix.tuple = 8;
  null_fix.attr = 2;
  null_fix.attribute = "city";
  null_fix.old_value = Value("Edi");
  null_fix.new_value = Value::Null();
  null_fix.phase = "hRepair";
  journal.Append(null_fix);

  // The library's one CSV reader reads the 6-column journal back.
  std::ostringstream out;
  ASSERT_TRUE(journal.WriteCsv(out).ok());
  auto schema =
      data::MakeSchema("journal",
                       {"tuple", "attribute", "old", "new", "phase", "rule"});
  std::istringstream in(out.str());
  auto parsed = data::ReadCsv(in, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2);
  const data::Tuple& e0 = parsed->tuple(0);
  EXPECT_EQ(e0.value(0), Value("7"));
  EXPECT_EQ(e0.value(1), Value("name"));
  EXPECT_EQ(e0.value(2), Value("a,\"b\""));
  EXPECT_EQ(e0.value(3), Value("line1\nline2"));
  EXPECT_EQ(e0.value(4), Value("eRepair"));
  EXPECT_EQ(e0.value(5), Value("md,1"));
  const data::Tuple& e1 = parsed->tuple(1);
  EXPECT_EQ(e1.value(0), Value("8"));
  EXPECT_TRUE(e1.value(3).is_null());
  EXPECT_EQ(e1.value(5), Value(""));  // an empty rule is an empty cell

  // Writing the parsed rows back reproduces the journal's bytes.
  std::ostringstream again;
  ASSERT_TRUE(data::WriteCsv(again, *parsed).ok());
  EXPECT_EQ(again.str(), out.str());
}

// What the same reader refuses in place of a journal, cut from the writer's
// own output: a file cut inside a quoted cell, a row cut short, a missing
// header and empty input.
TEST(FixJournalTest, ReadCsvRejectsMalformedInput) {
  FixJournal journal;
  FixEntry fix;
  fix.tuple = 7;
  fix.attr = 1;
  fix.attribute = "name";
  fix.old_value = Value("a,\"b\"");
  fix.new_value = Value("c");
  fix.phase = "eRepair";
  fix.rule = "md";
  journal.Append(fix);
  std::ostringstream six_columns;
  ASSERT_TRUE(journal.WriteCsv(six_columns).ok());

  const data::SchemaPtr schema = data::MakeSchema(
      "journal", {"tuple", "attribute", "old", "new", "phase", "rule"});
  auto read = [](const std::string& text, const data::SchemaPtr& over) {
    std::istringstream in(text);
    return data::ReadCsv(in, over);
  };
  const std::string text = six_columns.str();
  ASSERT_TRUE(read(text, schema).ok());
  const size_t quote = text.find('"');
  ASSERT_NE(quote, std::string::npos);
  EXPECT_EQ(read(text.substr(0, quote + 3), schema).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(read(text.substr(0, text.rfind(',')) + "\n", schema)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(read(text.substr(text.find('\n') + 1), schema).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(read("", schema).status().code(), StatusCode::kInvalidArgument);
}

// The journal's canonicalization and CSV rendering, checked against the
// algorithm they replaced, kept here as the oracle: a map from (tuple,
// attribute name) to each cell's first entry, a stable sort of the net
// entries, and a stream writer. Seeded journals repeat cells, churn them
// back to their first value, write nulls and need CSV quoting.
FixJournal OracleCanonicalized(const FixJournal& journal) {
  std::vector<FixEntry> net;
  std::map<std::pair<data::TupleId, std::string>, size_t> cell_entry;
  for (const FixEntry& e : journal.entries()) {
    auto [it, inserted] = cell_entry.try_emplace({e.tuple, e.attribute},
                                                 net.size());
    if (inserted) {
      net.push_back(e);
    } else {
      net[it->second].new_value = e.new_value;
      net[it->second].phase = e.phase;
      net[it->second].rule = e.rule;
    }
  }
  net.erase(std::remove_if(net.begin(), net.end(),
                           [](const FixEntry& e) {
                             return e.old_value == e.new_value ||
                                    (e.old_value.is_null() &&
                                     e.new_value.is_null());
                           }),
            net.end());
  std::stable_sort(net.begin(), net.end(),
                   [](const FixEntry& a, const FixEntry& b) {
                     if (a.tuple != b.tuple) return a.tuple < b.tuple;
                     return a.attribute < b.attribute;
                   });
  FixJournal canonical;
  for (FixEntry& e : net) canonical.Append(std::move(e));
  return canonical;
}

std::string OracleCsv(const FixJournal& journal) {
  const auto value = [](const Value& v) {
    return v.is_null() ? std::string(data::kNullToken) : data::CsvQuote(v.str());
  };
  std::ostringstream out;
  out << "tuple,attribute,old,new,phase,rule\n";
  for (const FixEntry& e : journal.entries()) {
    out << e.tuple << ',' << data::CsvQuote(e.attribute) << ','
        << value(e.old_value) << ',' << value(e.new_value) << ','
        << data::CsvQuote(e.phase) << ',' << data::CsvQuote(e.rule) << '\n';
  }
  return out.str();
}

TEST(FixJournalTest, CanonicalizedAndCsvMatchTheOracleOnSeededJournals) {
  const std::vector<std::string> attributes = {"zip", "city", "a,b", "q\"x",
                                               "name"};
  const std::vector<Value> values = {
      Value("Edi"),      Value("Ldn"),         Value("x,y"),
      Value("he said \"hi\""), Value("line1\nline2"), Value(""),
      Value::Null()};
  const std::vector<std::string> phases = {"cRepair", "eRepair", "hRepair"};
  const std::vector<std::string> rule_names = {"phi1", "md,2", "", "r\"3"};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    FixJournal journal;
    // Per cell, the value its last entry wrote: later entries chain from
    // it, as a pipeline's do, and often return to an earlier value.
    std::map<std::pair<data::TupleId, size_t>, Value> current;
    const int n = static_cast<int>(rng.Uniform(0, 120));
    for (int i = 0; i < n; ++i) {
      FixEntry e;
      e.tuple = static_cast<data::TupleId>(rng.Uniform(0, 9));
      const size_t a = rng.Index(attributes.size());
      e.attr = static_cast<data::AttributeId>(a);
      e.attribute = attributes[a];
      auto it = current
                    .try_emplace({e.tuple, a},
                                 values[rng.Index(values.size())])
                    .first;
      e.old_value = it->second;
      e.new_value = values[rng.Index(values.size())];
      it->second = e.new_value;
      e.phase = phases[rng.Index(phases.size())];
      e.rule = rule_names[rng.Index(rule_names.size())];
      journal.Append(std::move(e));
    }
    const FixJournal canonical = journal.Canonicalized();
    const FixJournal oracle = OracleCanonicalized(journal);
    ASSERT_EQ(canonical.size(), oracle.size()) << "seed " << seed;
    for (size_t i = 0; i < oracle.size(); ++i) {
      const FixEntry& got = canonical.entries()[i];
      const FixEntry& want = oracle.entries()[i];
      EXPECT_EQ(got.tuple, want.tuple) << "seed " << seed << " entry " << i;
      EXPECT_EQ(got.attr, want.attr) << "seed " << seed << " entry " << i;
      EXPECT_EQ(got.attribute, want.attribute) << "seed " << seed;
      EXPECT_EQ(got.old_value, want.old_value) << "seed " << seed;
      EXPECT_EQ(got.new_value, want.new_value) << "seed " << seed;
      EXPECT_EQ(got.phase, want.phase) << "seed " << seed;
      EXPECT_EQ(got.rule, want.rule) << "seed " << seed;
    }
    EXPECT_EQ(journal.ToCsv(), OracleCsv(journal)) << "seed " << seed;
    EXPECT_EQ(canonical.ToCsv(), OracleCsv(oracle)) << "seed " << seed;
    std::ostringstream written;
    ASSERT_TRUE(canonical.WriteCsv(written).ok());
    EXPECT_EQ(written.str(), OracleCsv(oracle)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace uniclean
