// Tests for the engine-scoped core::MatchEnvironment and the warm
// CleanEngine / Session runs built on it. Two properties matter:
//
//  1. Parity: sharing one matcher (index + memos) across cRepair / eRepair /
//     hRepair must be invisible — the pipeline's journal and repaired
//     relation must be byte-identical to a baseline that gives each phase
//     its own freshly built MatchEnvironment.
//  2. Warm reuse: an engine builds its MD indexes at most once per lifetime;
//     successive Session runs over fresh dirty relations reuse them and
//     produce identical journals (warm-rerun determinism).

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "gen/dataset.h"
#include "rules/parser.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

gen::Dataset MakeDataset(const std::string& name, uint64_t seed) {
  gen::GeneratorConfig config;
  config.num_tuples = 250;
  config.master_size = 120;
  config.noise_rate = 0.08;
  config.dup_rate = 0.4;
  config.asserted_rate = 0.4;
  config.seed = seed;
  if (name == "HOSP") return gen::GenerateHosp(config);
  if (name == "DBLP") return gen::GenerateDblp(config);
  return gen::GenerateTpch(config);
}

/// Mirrors the pipeline's internal journal observer: one entry per fix with
/// the attribute and rule resolved to names.
core::FixObserver Journaling(FixJournal* journal, const data::Relation* data,
                             const rules::RuleSet* rules,
                             std::string_view phase) {
  return [journal, data, rules, phase](data::TupleId t, data::AttributeId a,
                                       const data::Value& old_value,
                                       const data::Value& new_value,
                                       rules::RuleId rule) {
    FixEntry entry;
    entry.tuple = t;
    entry.attr = a;
    entry.attribute = data->schema().attribute_name(a);
    entry.old_value = old_value;
    entry.new_value = new_value;
    entry.phase = std::string(phase);
    if (rule >= 0 && rule < rules->num_rules()) {
      entry.rule = rules->rule_name(rule);
    }
    journal->Append(std::move(entry));
  };
}

struct Outcome {
  std::string journal_text;
  std::string journal_csv;
  std::vector<std::vector<std::string>> repaired;
};

Outcome Materialize(const FixJournal& journal, const data::Relation& data) {
  Outcome outcome;
  std::ostringstream text;
  std::ostringstream csv;
  EXPECT_TRUE(journal.WriteText(text).ok());
  EXPECT_TRUE(journal.WriteCsv(csv).ok());
  outcome.journal_text = text.str();
  outcome.journal_csv = csv.str();
  outcome.repaired.reserve(static_cast<size_t>(data.size()));
  for (const data::Tuple& t : data.tuples()) {
    std::vector<std::string> row;
    row.reserve(t.values().size());
    for (const data::Value& v : t.values()) row.push_back(v.ToString());
    outcome.repaired.push_back(std::move(row));
  }
  return outcome;
}

class MatchEnvironmentParity : public ::testing::TestWithParam<const char*> {};

TEST_P(MatchEnvironmentParity, SharedEnvironmentMatchesPerPhaseBaseline) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/17);
  const double eta = 1.0;

  // Baseline: every phase builds (and warms) its own matchers in a fresh
  // environment, so no index or memo crosses a phase boundary.
  data::Relation baseline_data = ds.dirty.Clone();
  FixJournal baseline_journal;
  core::CRepairOptions copts;
  copts.eta = eta;
  copts.on_fix = Journaling(&baseline_journal, &baseline_data, &ds.rules,
                            PhaseName(Phase::kCRepair));
  core::CRepair(&baseline_data, core::MatchEnvironment(ds.rules, ds.master),
                copts);
  core::ERepairOptions eopts;
  eopts.eta = eta;
  eopts.on_fix = Journaling(&baseline_journal, &baseline_data, &ds.rules,
                            PhaseName(Phase::kERepair));
  core::ERepair(&baseline_data, core::MatchEnvironment(ds.rules, ds.master),
                eopts);
  core::HRepairOptions hopts;
  hopts.on_fix = Journaling(&baseline_journal, &baseline_data, &ds.rules,
                            PhaseName(Phase::kHRepair));
  core::HRepair(&baseline_data, core::MatchEnvironment(ds.rules, ds.master),
                hopts);
  Outcome baseline = Materialize(baseline_journal, baseline_data);

  // Shared environment: an engine session, one matcher set for all three
  // phases.
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(eta)
                    .BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  data::Relation shared_data = ds.dirty.Clone();
  Session session = (*engine)->NewSession();
  auto result = session.Run(&shared_data);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Outcome shared = Materialize(result->journal, shared_data);

  EXPECT_FALSE(shared.journal_csv.empty());
  EXPECT_EQ(shared.journal_text, baseline.journal_text);
  EXPECT_EQ(shared.journal_csv, baseline.journal_csv);
  EXPECT_EQ(shared.repaired, baseline.repaired);
}

INSTANTIATE_TEST_SUITE_P(Datasets, MatchEnvironmentParity,
                         ::testing::Values("HOSP", "DBLP", "TPCH"));

TEST(MatchEnvironmentTest, MatchersAreSharedExactlyBetweenEqualPremises) {
  // §2.2 normalization splits an MD into one MD per action; the MDs that
  // end up with equal premises share one matcher, across source MDs too
  // (TPCH's m1 and m8 both read c_custkey=c_custkey).
  const std::vector<std::pair<const char*, int>> cases = {
      {"HOSP", 3}, {"DBLP", 3}, {"TPCH", 9}};
  for (const auto& [name, distinct_premises] : cases) {
    SCOPED_TRACE(name);
    gen::Dataset ds = MakeDataset(name, 23);
    core::MatchEnvironment env(ds.rules, ds.master);
    EXPECT_EQ(env.num_matchers(), distinct_premises);
    for (rules::RuleId a = 0; a < ds.rules.num_rules(); ++a) {
      if (ds.rules.IsCfd(a)) {
        EXPECT_EQ(env.matcher(a), nullptr);
        continue;
      }
      ASSERT_NE(env.matcher(a), nullptr);
      EXPECT_EQ(env.matcher(a)->md().premise(), ds.rules.md(a).premise());
      for (rules::RuleId b = 0; b < ds.rules.num_rules(); ++b) {
        if (ds.rules.IsCfd(b)) continue;
        EXPECT_EQ(env.matcher(a) == env.matcher(b),
                  ds.rules.md(a).premise() == ds.rules.md(b).premise())
            << ds.rules.rule_name(a) << " vs " << ds.rules.rule_name(b);
      }
    }
  }
}

TEST(MatchEnvironmentTest, OnlyIdenticalPremisesShareAMatcher) {
  using rules::MdAction;
  using rules::MdClause;
  using similarity::SimilarityPredicate;
  const std::vector<std::string> attrs = {"name",  "city", "zip",
                                          "phone", "gd",   "email"};
  data::SchemaPtr schema = data::MakeSchema("r", attrs);
  data::SchemaPtr master_schema = data::MakeSchema("m", attrs);
  const auto clause = [](data::AttributeId attr, SimilarityPredicate p) {
    return MdClause{attr, attr, p};
  };
  const auto action = [](data::AttributeId attr) {
    return MdAction{attr, attr};
  };
  const data::AttributeId kName = 0, kCity = 1, kZip = 2, kPhone = 3,
                          kGd = 4, kEmail = 5;
  const MdClause name_jw = clause(kName, SimilarityPredicate::JaroWinkler(0.8));
  const MdClause city_eq = clause(kCity, SimilarityPredicate::Equals());
  std::vector<rules::Md> mds;
  // a.0 and a.1 (siblings) and b (another source MD) have one premise.
  mds.push_back(rules::Md::Make("a", {name_jw, city_eq},
                                {action(kZip), action(kPhone)}));
  mds.push_back(rules::Md::Make("b", {name_jw, city_eq}, {action(kGd)}));
  // Only the threshold differs from a's premise.
  mds.push_back(rules::Md::Make(
      "threshold",
      {clause(kName, SimilarityPredicate::JaroWinkler(0.7)), city_eq},
      {action(kZip)}));
  // Only the clause order differs from a's premise.
  mds.push_back(rules::Md::Make("order", {city_eq, name_jw}, {action(kZip)}));
  // Only q differs between q2 and q3.
  mds.push_back(rules::Md::Make(
      "q2", {clause(kName, SimilarityPredicate::QGram(0.5, 2))},
      {action(kCity)}));
  mds.push_back(rules::Md::Make(
      "q3", {clause(kName, SimilarityPredicate::QGram(0.5, 3))},
      {action(kCity)}));
  // The negative MD embeds gd=gd into neg's email action only (Prop. 2.6).
  mds.push_back(rules::Md::Make("neg",
                                {clause(kZip, SimilarityPredicate::Equals())},
                                {action(kName), action(kEmail)}));
  std::vector<rules::NegativeMd> negatives = {
      rules::NegativeMd::Make("n", {{kGd, kGd}}, {action(kEmail)})};
  auto made = rules::RuleSet::Make(schema, master_schema, {}, std::move(mds),
                                   std::move(negatives));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const rules::RuleSet& rs = *made;

  data::Relation master(master_schema);
  master.AddRow({"Anna Smith", "Edi", "EH8", "555", "f", "a@x"});
  master.AddRow({"Bob Brown", "Ldn", "W1", "556", "m", "b@x"});
  core::MatchEnvironment env(rs, master);
  const auto rule = [&](const std::string& rule_name) {
    for (rules::RuleId id = 0; id < rs.num_rules(); ++id) {
      if (rs.rule_name(id) == rule_name) return id;
    }
    ADD_FAILURE() << "no rule named " << rule_name;
    return rules::RuleId{0};
  };
  const core::MdMatcher* shared = env.matcher(rule("a.0"));
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(env.matcher(rule("a.1")), shared);
  EXPECT_EQ(env.matcher(rule("b")), shared);
  // A shared matcher holds the lowest-id MD of its group.
  EXPECT_EQ(&shared->md(), &rs.md(rule("a.0")));
  EXPECT_NE(env.matcher(rule("threshold")), shared);
  EXPECT_NE(env.matcher(rule("order")), shared);
  EXPECT_NE(env.matcher(rule("q2")), env.matcher(rule("q3")));
  EXPECT_NE(env.matcher(rule("neg.0")), env.matcher(rule("neg.1+neg")));
  // a.0/a.1/b, threshold, order, q2, q3, neg.0, neg.1+neg.
  EXPECT_EQ(env.num_matchers(), 7);
  EXPECT_EQ(rs.mds().size(), 9u);
}

/// An engine over the dataset's master and rules (η = 1).
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

TEST(MatchEnvironmentTest, EngineBuildsIndexesAtMostOncePerLifetime) {
  gen::Dataset ds = MakeDataset("DBLP", 31);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds);

  const uint64_t before = core::MdMatcher::ConstructedCount();
  engine->Warmup();
  const uint64_t after_warmup = core::MdMatcher::ConstructedCount();
  // One build per distinct premise (DBLP: 7 normalized MDs over 3).
  EXPECT_EQ(after_warmup - before, 3u);
  EXPECT_EQ(engine->environment().num_matchers(), 3);

  // Every run — a session run twice, then a second session — reuses the
  // warm environment: the build counter must not move again.
  Session session = engine->NewSession();
  data::Relation copy1 = ds.dirty.Clone();
  data::Relation copy2 = ds.dirty.Clone();
  data::Relation copy3 = ds.dirty.Clone();
  auto r1 = session.Run(&copy1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = session.Run(&copy2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  auto r3 = engine->NewSession().Run(&copy3);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(core::MdMatcher::ConstructedCount(), after_warmup);
}

TEST(MatchEnvironmentTest, WarmRerunsAreDeterministic) {
  gen::Dataset ds = MakeDataset("HOSP", 41);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds);
  Session session = engine->NewSession();

  data::Relation cold_copy = ds.dirty.Clone();
  data::Relation warm_copy = ds.dirty.Clone();
  auto cold = session.Run(&cold_copy);   // pays the index build
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = session.Run(&warm_copy);   // fully warm indexes and memos
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  Outcome cold_outcome = Materialize(cold->journal, cold_copy);
  Outcome warm_outcome = Materialize(warm->journal, warm_copy);
  EXPECT_FALSE(cold_outcome.journal_csv.empty());
  EXPECT_EQ(cold_outcome.journal_text, warm_outcome.journal_text);
  EXPECT_EQ(cold_outcome.journal_csv, warm_outcome.journal_csv);
  EXPECT_EQ(cold_outcome.repaired, warm_outcome.repaired);
}

TEST(MatchEnvironmentTest, RunOnForeignRelationValidatesArguments) {
  gen::Dataset ds = MakeDataset("HOSP", 7);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds);
  Session session = engine->NewSession();

  auto null_result = session.Run(nullptr);
  EXPECT_EQ(null_result.status().code(), StatusCode::kInvalidArgument);

  data::Relation wrong(data::MakeSchema("other", {"x", "y"}));
  wrong.AddRow({"1", "2"});
  auto mismatch = session.Run(&wrong);
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
}

// The run's match table keeps only lists that live in a memo, so capping the
// memo or turning it off (both serve lists from per-thread scratch) changes
// no journal. Each engine runs twice: the second run meets a full memo.
TEST(MatchEnvironmentTest, MemoCapAndMemosOffLeaveTheJournalUnchanged) {
  for (const char* name : {"HOSP", "DBLP", "TPCH"}) {
    SCOPED_TRACE(name);
    gen::Dataset ds = MakeDataset(name, 23);
    core::MdMatcherOptions unbounded;
    core::MdMatcherOptions capped;
    capped.memo_capacity = 16;
    core::MdMatcherOptions off;
    off.use_memos = false;
    std::vector<Outcome> outcomes;
    for (const core::MdMatcherOptions& matcher : {unbounded, capped, off}) {
      auto engine = EngineBuilder()
                        .WithDataSchema(ds.dirty.schema_ptr())
                        .WithMaster(&ds.master)
                        .WithRules(&ds.rules)
                        .WithMatcherOptions(matcher)
                        .BuildEngine();
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      Session session = (*engine)->NewSession();
      for (int run = 0; run < 2; ++run) {
        data::Relation d = ds.dirty.Clone();
        auto result = session.Run(&d);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        outcomes.push_back(Materialize(result->journal, d));
      }
    }
    ASSERT_FALSE(outcomes[0].journal_csv.empty());
    for (size_t i = 1; i < outcomes.size(); ++i) {
      EXPECT_EQ(outcomes[i].journal_csv, outcomes[0].journal_csv)
          << "outcome " << i;
      EXPECT_EQ(outcomes[i].repaired, outcomes[0].repaired) << "outcome " << i;
    }
  }
}

// A tuple whose premise is unchanged is answered from the table, without a
// memo lookup; once a premise cell is rewritten it is probed again.
TEST(RunMatchTableTest, ARewrittenPremiseIsProbedAgain) {
  data::SchemaPtr schema = data::MakeSchema("r", {"A", "B"});
  data::SchemaPtr master_schema = data::MakeSchema("m", {"X", "Y"});
  auto rules = rules::ParseRuleSet("MD m: A=X -> B:=Y\n", schema,
                                   master_schema);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  data::Relation master(master_schema);
  master.AddRow({"k1", "m1"});
  master.AddRow({"k2", "m2"});
  data::Relation d(schema);
  d.AddRow({"k1", "b"});
  core::MatchEnvironment env(*rules, master);
  core::RunMatchTable table(env, d);
  const rules::RuleId md = 0;
  const auto lookups = [&env] {
    const core::MemoStats stats = env.MemoStats();
    return stats.hits + stats.misses;
  };
  using Matches = std::vector<data::TupleId>;

  EXPECT_EQ(table.Matches(md, 0), Matches{0});
  const uint64_t first = lookups();
  EXPECT_EQ(table.Matches(md, 0), Matches{0});
  EXPECT_EQ(table.FindFirstMatch(md, 0), 0);
  d.mutable_tuple(0).set_value(1, data::Value("not in the premise"));
  EXPECT_EQ(table.Matches(md, 0), Matches{0});
  EXPECT_EQ(lookups(), first);

  d.mutable_tuple(0).set_value(0, data::Value("k2"));
  EXPECT_EQ(table.Matches(md, 0), Matches{1});
  EXPECT_EQ(lookups(), first + 1);
  d.mutable_tuple(0).set_value(0, data::Value("k1"));
  EXPECT_EQ(table.FindFirstMatch(md, 0), 0);
  EXPECT_EQ(lookups(), first + 2);
  EXPECT_EQ(table.Matches(md, 0), Matches{0});
  EXPECT_EQ(lookups(), first + 2);
}

}  // namespace
}  // namespace uniclean
