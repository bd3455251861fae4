// Tests for the CleanEngine / Session split and its concurrency contract:
//
//  1. Determinism under concurrency: N threads of Session::Run (and
//     Engine::RunBatch worker pools) over independent relations produce
//     journals and repaired relations byte-identical to a serial baseline
//     on a fresh engine — the shared sharded memos may not change outcomes.
//     This suite is the ThreadSanitizer target in CI (UNICLEAN_TSAN).
//  2. Memo capping: MdMatcherOptions::memo_capacity bounds resident memo
//     entries (admission-controlled eviction), counts evictions, and never
//     changes results.

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "data/string_pool.h"
#include "gen/dataset.h"
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

std::shared_ptr<CleanEngine> MakeEngine(const gen::Dataset& ds,
                                        size_t memo_capacity = 0) {
  core::MdMatcherOptions matcher;
  matcher.memo_capacity = memo_capacity;
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .WithMatcherOptions(matcher)
                    .BuildEngine();
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// The environment's distinct matchers: rules with equal premises share
/// one, so a per-rule walk would count it once per rule.
std::vector<const core::MdMatcher*> DistinctMatchers(
    const core::MatchEnvironment& env) {
  std::vector<const core::MdMatcher*> matchers;
  for (rules::RuleId rule = 0; rule < env.rules().num_rules(); ++rule) {
    const core::MdMatcher* matcher = env.matcher(rule);
    if (matcher != nullptr &&
        std::find(matchers.begin(), matchers.end(), matcher) ==
            matchers.end()) {
      matchers.push_back(matcher);
    }
  }
  return matchers;
}

/// The memo maps an environment caps independently: per distinct matcher,
/// the match-list memo and the blocking memo.
size_t MemoMaps(const core::MatchEnvironment& env) {
  return 2 * DistinctMatchers(env).size();
}

/// Journal (text + CSV) and repaired relation, as comparable strings.
struct Outcome {
  std::string journal_text;
  std::string journal_csv;
  std::vector<std::vector<std::string>> repaired;

  bool operator==(const Outcome& o) const {
    return journal_text == o.journal_text && journal_csv == o.journal_csv &&
           repaired == o.repaired;
  }
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

/// A batch of distinct dirty relations sharing the dataset's master: the
/// raw dirty relation, the ground-truth clean one, and a half-repaired mix,
/// each twice — concurrent workers must keep their per-relation state apart
/// even when inputs repeat.
std::vector<data::Relation> MakeBatch(const gen::Dataset& ds) {
  data::Relation mixed = ds.dirty.Clone();
  for (data::TupleId t = 0; t < mixed.size() / 2; ++t) {
    for (data::AttributeId a = 0; a < mixed.schema().arity(); ++a) {
      mixed.mutable_tuple(t).set_value(a, ds.clean.tuple(t).value(a));
    }
  }
  std::vector<data::Relation> batch;
  for (int copy = 0; copy < 2; ++copy) {
    batch.push_back(ds.dirty.Clone());
    batch.push_back(ds.clean.Clone());
    batch.push_back(mixed.Clone());
  }
  return batch;
}

class EngineConcurrency : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineConcurrency, RunBatchMatchesSerialBaseline) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/17);

  // Serial reference: a fresh engine, the batch run one relation at a time.
  std::vector<data::Relation> serial_batch = MakeBatch(ds);
  std::vector<Outcome> serial;
  {
    std::shared_ptr<CleanEngine> engine = MakeEngine(ds);
    for (data::Relation& relation : serial_batch) {
      Session session = engine->NewSession();
      auto result = session.Run(&relation);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      serial.push_back(Materialize(result->journal, relation));
    }
  }

  // Concurrent arm: another fresh engine, same batch, a 4-thread pool.
  std::vector<data::Relation> concurrent_batch = MakeBatch(ds);
  std::vector<data::Relation*> ptrs;
  for (data::Relation& relation : concurrent_batch) ptrs.push_back(&relation);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds);
  std::vector<Result<CleanResult>> results =
      engine->RunBatch(ptrs, /*n_threads=*/4);
  ASSERT_EQ(results.size(), serial.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_TRUE(Materialize(results[i]->journal, concurrent_batch[i]) ==
                serial[i])
        << "relation " << i << " diverged under concurrency";
  }
}

TEST_P(EngineConcurrency, RawThreadedSessionsMatchSerialBaseline) {
  gen::Dataset ds = MakeDataset(GetParam(), /*seed=*/23);

  std::vector<data::Relation> serial_batch = MakeBatch(ds);
  std::vector<Outcome> serial;
  {
    std::shared_ptr<CleanEngine> engine = MakeEngine(ds);
    for (data::Relation& relation : serial_batch) {
      Session session = engine->NewSession();
      auto result = session.Run(&relation);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      serial.push_back(Materialize(result->journal, relation));
    }
  }

  // One std::thread per relation, all racing NewSession + Run on one warm
  // engine (no RunBatch scheduling in between).
  std::vector<data::Relation> threaded_batch = MakeBatch(ds);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds);
  engine->Warmup();
  std::vector<Outcome> threaded(threaded_batch.size());
  std::vector<Status> statuses(threaded_batch.size(), Status::OK());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < threaded_batch.size(); ++i) {
    threads.emplace_back([&, i] {
      Session session = engine->NewSession();
      auto result = session.Run(&threaded_batch[i]);
      if (!result.ok()) {
        statuses[i] = result.status();
        return;
      }
      threaded[i] = Materialize(result->journal, threaded_batch[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < threaded.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    EXPECT_TRUE(threaded[i] == serial[i])
        << "relation " << i << " diverged under raw threading";
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, EngineConcurrency,
                         ::testing::Values("HOSP", "DBLP"));

TEST(MemoCapTest, CapBoundsEntriesCountsEvictionsAndKeepsResults) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/41);

  // Uncapped reference.
  data::Relation reference_data = ds.dirty.Clone();
  std::shared_ptr<CleanEngine> reference = MakeEngine(ds);
  Session reference_session = reference->NewSession();
  auto reference_result = reference_session.Run(&reference_data);
  ASSERT_TRUE(reference_result.ok());
  const core::MemoStats uncapped = reference->MemoStats();
  ASSERT_GT(uncapped.entries, 0u);
  EXPECT_EQ(uncapped.evictions, 0u);

  // A cap far below the uncapped residency must bound entries, evict
  // (refuse admission) at least once, and leave results untouched.
  constexpr size_t kCap = 16;
  data::Relation capped_data = ds.dirty.Clone();
  std::shared_ptr<CleanEngine> capped = MakeEngine(ds, kCap);
  Session capped_session = capped->NewSession();
  auto capped_result = capped_session.Run(&capped_data);
  ASSERT_TRUE(capped_result.ok());

  EXPECT_TRUE(Materialize(capped_result->journal, capped_data) ==
              Materialize(reference_result->journal, reference_data))
      << "memo capping changed cleaning results";

  const core::MemoStats stats = capped->MemoStats();
  EXPECT_GT(stats.evictions, 0u) << "cap never engaged";
  // Each memo map (match list, blocking) is capped independently; bound
  // the total by kCap times the number of memo maps.
  EXPECT_LE(stats.entries, kCap * MemoMaps(capped->environment()));
  EXPECT_LT(stats.entries, uncapped.entries);
}

TEST(MemoCapTest, CapHoldsUnderConcurrentAdmission) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/43);
  constexpr size_t kCap = 16;
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds, kCap);

  std::vector<data::Relation> batch = MakeBatch(ds);
  std::vector<data::Relation*> ptrs;
  for (data::Relation& relation : batch) ptrs.push_back(&relation);
  std::vector<Result<CleanResult>> results = engine->RunBatch(ptrs, 4);
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  const core::MemoStats stats = engine->MemoStats();
  EXPECT_LE(stats.entries, kCap * MemoMaps(engine->environment()))
      << "concurrent admission overshot the cap";
}

TEST(MemoCapTest, CappedMatchesReferencesSurviveProbingOtherMatchers) {
  // Past the cap, Matches() hands out per-(thread, matcher) scratch: the
  // reference must stay intact while the same thread probes a *different*
  // matcher (a caller iterating all MD rules does this). Rules with equal
  // premises share a matcher, and so its scratch; only distinct matchers
  // are probed here.
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/67);
  core::MdMatcherOptions options;
  options.memo_capacity = 1;  // everything after the first entry is refused
  core::MatchEnvironment env(ds.rules, ds.master, options);
  const std::vector<const core::MdMatcher*> matchers = DistinctMatchers(env);
  ASSERT_EQ(matchers.size(), 3u);  // HOSP: 7 normalized MDs, 3 premises
  for (data::TupleId t = 0; t < 20; ++t) {
    const std::vector<data::TupleId>& first =
        matchers[0]->Matches(ds.dirty.tuple(t));
    const std::vector<data::TupleId> snapshot = first;
    for (size_t m = 1; m < matchers.size(); ++m) {
      (void)matchers[m]->Matches(ds.dirty.tuple(t));
    }
    EXPECT_EQ(first, snapshot)
        << "tuple " << t << ": probing other matchers clobbered the result";
  }
}

TEST(MemoStatsTest, WarmRerunHitsWithoutGrowing) {
  gen::Dataset ds = MakeDataset("DBLP", /*seed=*/47);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds);

  data::Relation first = ds.dirty.Clone();
  Session s1 = engine->NewSession();
  ASSERT_TRUE(s1.Run(&first).ok());
  const core::MemoStats cold = engine->MemoStats();
  ASSERT_GT(cold.entries, 0u);
  ASSERT_GT(cold.misses, 0u);

  data::Relation second = ds.dirty.Clone();
  Session s2 = engine->NewSession();
  ASSERT_TRUE(s2.Run(&second).ok());
  const core::MemoStats warm = engine->MemoStats();
  EXPECT_EQ(warm.entries, cold.entries)
      << "a warm rerun of identical data minted new memo entries";
  EXPECT_GT(warm.hits, cold.hits);
}

TEST(EngineBuilderTest, RuleTextWithoutSchemaFailsEngineBuild) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/53);
  auto engine = EngineBuilder()
                    .WithMaster(&ds.master)
                    .WithRuleText("CFD phi: a -> b")
                    .BuildEngine();
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, DefaultPhaseSubsetDrivesEngineSessions) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/59);
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .WithDefaultPhases(/*crepair=*/true, /*erepair=*/false,
                                       /*hrepair=*/false)
                    .BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->phases(), std::vector<Phase>{Phase::kCRepair});
  Session session = (*engine)->NewSession();
  data::Relation d = ds.dirty.Clone();
  auto result = session.Run(&d);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->phases.size(), 1u);
}

TEST(SessionTest, EmptySessionFailsPrecondition) {
  Session session;
  data::Relation d{data::MakeSchema("r", {"a"})};
  auto result = session.Run(&d);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionTest, RunBatchIsolatesPerRelationFailures) {
  gen::Dataset ds = MakeDataset("HOSP", /*seed=*/61);
  std::shared_ptr<CleanEngine> engine = MakeEngine(ds);

  data::Relation good = ds.dirty.Clone();
  data::Relation bad{data::MakeSchema("other", {"x", "y"})};
  std::vector<data::Relation*> batch = {&good, &bad};
  std::vector<Result<CleanResult>> results = engine->RunBatch(batch, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
}

TEST(StringPoolConcurrencyTest, ConcurrentInternAndResolveAreConsistent) {
  data::ScopedStringPool scoped;
  data::StringPool& pool = scoped.pool();
  constexpr int kThreads = 4;
  constexpr int kStrings = 500;
  // Each thread interns the same shared vocabulary (plus resolves ids it
  // just minted); every thread must observe identical id -> string mapping.
  std::vector<std::vector<data::ValueId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&pool, &ids, w] {
      ids[static_cast<size_t>(w)].reserve(kStrings);
      for (int i = 0; i < kStrings; ++i) {
        const std::string s = "value-" + std::to_string(i);
        const data::ValueId id = pool.Intern(s);
        if (pool.view(id) != s) {
          ADD_FAILURE() << "thread " << w << ": id " << id
                        << " resolved to a different string";
          return;
        }
        ids[static_cast<size_t>(w)].push_back(id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(ids[static_cast<size_t>(w)], ids[0])
        << "threads disagree on interned ids";
  }
  // +1 for the pre-interned empty string.
  EXPECT_EQ(pool.size(), static_cast<size_t>(kStrings) + 1);
}

}  // namespace
}  // namespace uniclean
