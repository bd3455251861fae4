// Tests for the run API, EngineBuilder → CleanEngine → Session: builder
// validation, phase pipeline execution, progress observation, pluggable
// phases, fix journaling, and parity with the direct core-phase sequence.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "data/csv.h"
#include "gen/dataset.h"
#include "paper_example.h"
#include "uniclean/builtin_phases.h"
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
  EXPECT_EQ(result->journal.CountForPhase(CRepairPhase::kName),
            cstats.deterministic_fixes);
  EXPECT_EQ(result->journal.CountForPhase(ERepairPhase::kName),
            estats.reliable_fixes);
  EXPECT_EQ(result->journal.CountForPhase(HRepairPhase::kName),
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
  Session session = (*engine)->NewSession();
  EXPECT_EQ(session.PhaseNames(), std::vector<std::string>{"cRepair"});
  Relation d = uniclean::testing::TranDirty();
  auto result = session.Run(&d);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->phases.size(), 1u);
  EXPECT_EQ(result->phases[0].phase, "cRepair");
  EXPECT_EQ(result->journal.CountForPhase(ERepairPhase::kName), 0);
  EXPECT_EQ(result->journal.CountForPhase(HRepairPhase::kName), 0);
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

TEST(SessionPipelineTest, InPlaceDataIsRepairedInTheCallersRelation) {
  auto engine = PaperBuilder().BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  std::vector<const Relation*> seen;
  session.set_progress_callback(
      [&](const PhaseEvent& event) { seen.push_back(event.data); });

  // Without a cancel token every phase cleans the caller's relation itself,
  // and Example 1.1's first deterministic fix lands there.
  Relation d = uniclean::testing::TranDirty();
  ASSERT_TRUE(session.Run(&d).ok());
  ASSERT_FALSE(seen.empty());
  for (const Relation* data : seen) EXPECT_EQ(data, &d);
  data::AttributeId city = d.schema().MustFindAttribute("city");
  EXPECT_EQ(d.tuple(0).value(city), Value("Edi"));

  // With a token armed the phases clean a scratch copy, which is swapped
  // into the caller's relation on success.
  seen.clear();
  session.set_cancel_token(std::make_shared<common::CancelToken>());
  Relation guarded = uniclean::testing::TranDirty();
  ASSERT_TRUE(session.Run(&guarded).ok());
  ASSERT_FALSE(seen.empty());
  for (const Relation* data : seen) EXPECT_NE(data, &guarded);
  EXPECT_EQ(guarded.CellDiffCount(d), 0);
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

  EXPECT_EQ(result->journal.CountForPhase(CRepairPhase::kName),
            cstats.deterministic_fixes);
  EXPECT_EQ(result->journal.CountForPhase(ERepairPhase::kName),
            estats.reliable_fixes);
  EXPECT_EQ(result->journal.CountForPhase(HRepairPhase::kName),
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
// Pluggable phases
// ---------------------------------------------------------------------------

/// A custom phase that uppercases one attribute and journals its writes.
class UppercaseCityPhase : public Phase {
 public:
  std::string_view name() const override { return "uppercaseCity"; }

  Result<PhaseStats> Run(PipelineContext* ctx) override {
    auto city = ctx->data->schema().FindAttribute("city");
    if (!city.ok()) return city.status();
    PhaseStats stats;
    for (data::TupleId t = 0; t < ctx->data->size(); ++t) {
      const Value& old_value = ctx->data->tuple(t).value(*city);
      if (old_value.is_null()) continue;
      std::string upper = old_value.str();
      for (char& c : upper) c = static_cast<char>(std::toupper(c));
      if (upper == old_value.str()) continue;
      FixEntry fix;
      fix.tuple = t;
      fix.attr = *city;
      fix.attribute = "city";
      fix.old_value = old_value;
      fix.new_value = Value(upper);
      fix.phase = std::string(name());
      ctx->journal->Append(fix);
      ctx->data->mutable_tuple(t).set_value(*city, Value(upper));
      ++stats.fixes;
    }
    return stats;
  }
};

/// A phase that always fails, to exercise Status propagation.
class FailingPhase : public Phase {
 public:
  std::string_view name() const override { return "failing"; }
  Result<PhaseStats> Run(PipelineContext*) override {
    return Status::Unimplemented("not today");
  }
};

TEST(SessionPipelineTest, CustomPhaseAppendsAfterDefaults) {
  auto engine = PaperBuilder()
                    .AddPhaseFactory(
                        [] { return std::make_unique<UppercaseCityPhase>(); })
                    .BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  EXPECT_EQ(session.PhaseNames(),
            (std::vector<std::string>{"cRepair", "eRepair", "hRepair",
                                      "uppercaseCity"}));
  Relation d = uniclean::testing::TranDirty();
  auto result = session.Run(&d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PhaseStats* custom = result->phase("uppercaseCity");
  ASSERT_NE(custom, nullptr);
  EXPECT_GT(custom->fixes, 0);
  EXPECT_EQ(result->journal.CountForPhase("uppercaseCity"), custom->fixes);
  data::AttributeId city = d.schema().MustFindAttribute("city");
  EXPECT_EQ(d.tuple(0).value(city), Value("EDI"));
}

TEST(SessionPipelineTest, CustomPipelineReplacesDefaults) {
  std::vector<PhaseFactory> factories;
  factories.push_back([] { return std::make_unique<UppercaseCityPhase>(); });
  auto engine =
      PaperBuilder().WithPhaseFactories(std::move(factories)).BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  EXPECT_EQ(session.PhaseNames(), std::vector<std::string>{"uppercaseCity"});
  Relation d = uniclean::testing::TranDirty();
  auto result = session.Run(&d);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->phases.size(), 1u);
}

TEST(SessionPipelineTest, FailingPhaseAbortsAndAnnotatesStatus) {
  std::vector<PhaseFactory> factories;
  factories.push_back([] { return std::make_unique<CRepairPhase>(); });
  factories.push_back([] { return std::make_unique<FailingPhase>(); });
  factories.push_back([] { return std::make_unique<HRepairPhase>(); });
  auto engine =
      PaperBuilder().WithPhaseFactories(std::move(factories)).BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  Relation d = uniclean::testing::TranDirty();
  auto result = session.Run(&d);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(result.status().message().find("failing"), std::string::npos);
}

TEST(SessionPipelineTest, ProgressStopsAtAFailingPhase) {
  std::vector<PhaseFactory> factories;
  factories.push_back([] { return std::make_unique<CRepairPhase>(); });
  factories.push_back([] { return std::make_unique<FailingPhase>(); });
  factories.push_back([] { return std::make_unique<HRepairPhase>(); });
  auto engine =
      PaperBuilder().WithPhaseFactories(std::move(factories)).BuildEngine();
  ASSERT_TRUE(engine.ok());
  Session session = (*engine)->NewSession();
  std::vector<std::string> events;
  session.set_progress_callback([&](const PhaseEvent& event) {
    std::string tag =
        event.kind == PhaseEvent::Kind::kPhaseStarted ? "start:" : "finish:";
    events.push_back(tag + std::to_string(event.index) + "/" +
                     std::to_string(event.total) + ":" +
                     std::string(event.phase));
  });
  Relation d = uniclean::testing::TranDirty();
  ASSERT_FALSE(session.Run(&d).ok());
  EXPECT_EQ(events, (std::vector<std::string>{"start:0/3:cRepair",
                                              "finish:0/3:cRepair",
                                              "start:1/3:failing"}));
}

/// Reports how often this instance has run, so a test can tell whether two
/// sessions share phase objects.
class RunCountingPhase : public Phase {
 public:
  std::string_view name() const override { return "counting"; }
  Result<PhaseStats> Run(PipelineContext*) override {
    PhaseStats stats;
    stats.counters.emplace_back("runs", ++runs_);
    return stats;
  }

 private:
  int64_t runs_ = 0;
};

TEST(SessionPipelineTest, EachSessionGetsItsOwnPhaseInstances) {
  int created = 0;
  std::vector<PhaseFactory> factories;
  factories.push_back([&created] {
    ++created;
    return std::make_unique<RunCountingPhase>();
  });
  auto engine =
      PaperBuilder().WithPhaseFactories(std::move(factories)).BuildEngine();
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(created, 0);

  Session first = (*engine)->NewSession();
  Session second = (*engine)->NewSession();
  EXPECT_EQ(created, 2);

  auto runs = [](Session* session) -> int64_t {
    Relation d = uniclean::testing::TranDirty();
    auto result = session->Run(&d);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok() || result->phase("counting") == nullptr) return -1;
    return result->phase("counting")->counter("runs");
  };
  EXPECT_EQ(runs(&first), 1);
  EXPECT_EQ(runs(&first), 2);
  EXPECT_EQ(runs(&second), 1);
  EXPECT_EQ(created, 2);
}

TEST(SessionPipelineTest, AddedPhasesFollowWhicheverPipelineIsSelected) {
  auto counting = [] { return std::make_unique<RunCountingPhase>(); };

  // Added before the pipeline is replaced: still appended after it.
  std::vector<PhaseFactory> custom;
  custom.push_back([] { return std::make_unique<UppercaseCityPhase>(); });
  auto replaced = PaperBuilder()
                      .AddPhaseFactory(counting)
                      .WithPhaseFactories(std::move(custom))
                      .BuildEngine();
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ((*replaced)->PhaseNames(),
            (std::vector<std::string>{"uppercaseCity", "counting"}));

  // WithDefaultPhases drops an earlier custom pipeline but keeps the added
  // phase behind the selected built-ins.
  std::vector<PhaseFactory> dropped;
  dropped.push_back([] { return std::make_unique<UppercaseCityPhase>(); });
  auto subset = PaperBuilder()
                    .WithPhaseFactories(std::move(dropped))
                    .AddPhaseFactory(counting)
                    .WithDefaultPhases(false, true, false)
                    .BuildEngine();
  ASSERT_TRUE(subset.ok());
  EXPECT_EQ((*subset)->PhaseNames(),
            (std::vector<std::string>{"eRepair", "counting"}));
  Relation d = uniclean::testing::TranDirty();
  auto result = (*subset)->NewSession().Run(&d);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->phases.size(), 2u);
  EXPECT_EQ(result->phases[0].phase, "eRepair");
  EXPECT_EQ(result->phases[1].phase, "counting");
}

TEST(SessionPipelineTest, EmptyPipelineLeavesDataUntouched) {
  auto engine =
      PaperBuilder().WithDefaultPhases(false, false, false).BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->PhaseNames().empty());
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

  std::ostringstream out;
  ASSERT_TRUE(journal.WriteCsv(out).ok());
  std::istringstream in(out.str());
  auto parsed = FixJournal::ReadCsv(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  const FixEntry& e0 = parsed->entries()[0];
  EXPECT_EQ(e0.tuple, 7);
  EXPECT_EQ(e0.attribute, "name");
  EXPECT_EQ(e0.old_value, Value("a,\"b\""));
  EXPECT_EQ(e0.new_value, Value("line1\nline2"));
  EXPECT_EQ(e0.phase, "eRepair");
  EXPECT_EQ(e0.rule, "md,1");
  const FixEntry& e1 = parsed->entries()[1];
  EXPECT_EQ(e1.tuple, 8);
  EXPECT_TRUE(e1.new_value.is_null());
  EXPECT_TRUE(e1.rule.empty());

  // Serializing the parsed journal reproduces the original bytes.
  std::ostringstream again;
  ASSERT_TRUE(parsed->WriteCsv(again).ok());
  EXPECT_EQ(again.str(), out.str());
}

TEST(FixJournalTest, ReadCsvRejectsMalformedInput) {
  {
    std::istringstream in("");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    std::istringstream in("not,the,journal,header\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    std::istringstream in(
        "tuple,attribute,old,new,phase,rule\nx,A,o,n,p,r\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    std::istringstream in("tuple,attribute,old,new,phase,rule\n1,A,o,n\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    // Negative and int-overflowing tuple ids are rejected, not truncated.
    std::istringstream in("tuple,attribute,old,new,phase,rule\n-3,A,o,n,p,r\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
  {
    std::istringstream in(
        "tuple,attribute,old,new,phase,rule\n4294967303,A,o,n,p,r\n");
    EXPECT_EQ(FixJournal::ReadCsv(in).status().code(),
              StatusCode::kCorruption);
  }
}

}  // namespace
}  // namespace uniclean
