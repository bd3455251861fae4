// Cross-version pin of the fix journal at scale. The checked-in journal
// golden cleans a 60-tuple HOSP sample against a 30-tuple master. These runs
// clean HOSP, DBLP and TPC-H data against |Dm| = 1000, where suffix-array
// blocking cuts probes at 64 suffixes and keeps l candidates out of
// hundreds, and the similarity predicates judge far more pairs. Each
// compares an FNV-1a-64 digest of the journal CSV with a recorded value.
//
// The digests were recorded before the early-exit TopL, the multiset
// Jaro-Winkler bound and the suffix array (which replaced a suffix tree)
// went in; all three must leave every journal byte-identical. A
// Jaro-Winkler pre-filter that forgets the Winkler prefix bonus changes a
// digest here but not the golden. TopL's choice among tied candidates rarely
// reaches a journal, because the MD thresholds keep only near-identical
// values; suffix_array_test pins that choice directly.
//
// The blocking index takes no order from a hash map: a capped probe meets
// its suffixes in suffix order, which the indexed values alone fix.
//
// Every case also pins a second digest over each phase's statistics (fix
// count, named counters, distinct match list) and hRepair's pass count. The
// violation-group index that eRepair and hRepair keep across their passes
// must reproduce every counter, including the ones a group that stayed clean
// only replays. Those digests, the ManyPasses cases (hRepair runs 15 or more
// passes there) and the DeltaStreamPin digests were recorded before that
// index went in, from the engines that rebuilt every group on every pass.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/string_pool.h"
#include "gen/dataset.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

uint64_t Fnv1a64(std::string_view bytes, uint64_t hash = kFnvOffset) {
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

/// Every phase's fix count, named counters and distinct matches, one line
/// per item.
std::string StatsText(const std::vector<PhaseStats>& phases) {
  std::ostringstream out;
  for (const PhaseStats& p : phases) {
    out << p.phase << " fixes=" << p.fixes << "\n";
    for (const auto& [name, value] : p.counters) {
      out << p.phase << " " << name << "=" << value << "\n";
    }
    for (const auto& [t, s] : p.matches) out << t << "~" << s << "\n";
  }
  return out.str();
}

gen::Dataset Generate(const std::string& name, gen::GeneratorConfig config) {
  return name == "HOSP"   ? gen::GenerateHosp(config)
         : name == "DBLP" ? gen::GenerateDblp(config)
                          : gen::GenerateTpch(config);
}

std::shared_ptr<CleanEngine> BuildEngine(const gen::Dataset& ds) {
  auto engine = EngineBuilder()
                    .WithDataSchema(ds.dirty.schema_ptr())
                    .WithMaster(&ds.master)
                    .WithRules(&ds.rules)
                    .WithEta(1.0)
                    .BuildEngine();
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

struct PinCase {
  const char* dataset;
  int tuples;
  uint64_t seed;
  uint64_t digest;        // FNV-1a-64 of the journal CSV
  uint64_t stats_digest;  // FNV-1a-64 of StatsText over the phases
  int hrepair_passes;
};

void PrintTo(const PinCase& pin, std::ostream* os) {
  *os << pin.dataset << " |D|=" << pin.tuples << " seed " << pin.seed;
}

class JournalScalePin : public ::testing::TestWithParam<PinCase> {};

TEST_P(JournalScalePin, JournalCsvDigestIsUnchanged) {
  const PinCase& pin = GetParam();
  data::ScopedStringPool pool;
  gen::GeneratorConfig config;
  config.num_tuples = pin.tuples;
  config.master_size = 1000;
  config.seed = pin.seed;
  gen::Dataset ds = Generate(pin.dataset, config);

  auto engine = BuildEngine(ds);
  ASSERT_NE(engine, nullptr);
  Session session = engine->NewSession();
  auto result = session.Run(&ds.dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::ostringstream csv;
  ASSERT_TRUE(result->journal.WriteCsv(csv).ok());
  ASSERT_GT(result->journal.size(), 0u);

  EXPECT_EQ(Hex(Fnv1a64(csv.str())), Hex(pin.digest))
      << result->journal.size() << " journal entries";
  EXPECT_EQ(Hex(Fnv1a64(StatsText(result->phases))), Hex(pin.stats_digest))
      << StatsText(result->phases).substr(0, 2000);
  const PhaseStats* hrepair = result->phase("hRepair");
  ASSERT_NE(hrepair, nullptr);
  EXPECT_EQ(hrepair->counter("passes"), pin.hrepair_passes);
}

std::string PinName(const ::testing::TestParamInfo<PinCase>& info) {
  return std::string(info.param.dataset) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, JournalScalePin,
    ::testing::Values(
        PinCase{"HOSP", 500, 1, 0x77475a60ddce5502ull,
                0x7c4f3974b3a4eb4eull, 6},
        PinCase{"HOSP", 500, 2, 0xd2a9ac7d52298f9aull,
                0x2feb2e60521ac0d6ull, 9},
        PinCase{"DBLP", 1000, 1, 0x2b9de5e25f424b0full,
                0xfbb525a0e2b26d44ull, 7},
        PinCase{"DBLP", 1000, 2, 0x5377c3e05baf5c43ull,
                0xd3563acf759a34e3ull, 3},
        PinCase{"TPCH", 1000, 1, 0xa2fbaefec39827d5ull,
                0xab7aacde5cbc19a6ull, 6},
        PinCase{"TPCH", 1000, 2, 0x15e41967b96bd3a7ull,
                0x7126abd20d200a2eull, 36}),
    PinName);

// Runs in which hRepair needs many passes (26, 22, 119 and 32; the last
// field): most of its groups stay clean from one pass to the next, so these
// lean hardest on the replay.
INSTANTIATE_TEST_SUITE_P(
    ManyPasses, JournalScalePin,
    ::testing::Values(
        PinCase{"HOSP", 2000, 3, 0xba24a06ed4476795ull,
                0x67ee643fcd04e254ull, 26},
        PinCase{"HOSP", 2000, 4, 0x5a2b24610f1c27b0ull,
                0x4b2ab1ed61980e1aull, 22},
        PinCase{"TPCH", 1000, 4, 0xf547ae2d7213a2e1ull,
                0xe60ab6d93b1a782cull, 119},
        PinCase{"TPCH", 1000, 5, 0x1f6335837cb3231dull,
                0x012567117f0898b4ull, 32}),
    PinName);

// A seeded stream of single-tuple inserts, updates and deletes through a
// tracked session. Incremental rounds re-clean scratch relations whose ring
// tuples are frozen at their committed values, and a full re-run skips the
// tombstones of earlier deletes; no batch pin reaches either. Of the 60
// DELTAs, 13 fall back to a full re-run on HOSP, none on DBLP and all on
// TPC-H.
struct DeltaPinCase {
  const char* dataset;
  uint64_t seed;
  uint64_t digest;  // running FNV-1a-64 over every DELTA's outcome
};

void PrintTo(const DeltaPinCase& pin, std::ostream* os) {
  *os << pin.dataset << " seed " << pin.seed;
}

class DeltaStreamPin : public ::testing::TestWithParam<DeltaPinCase> {};

TEST_P(DeltaStreamPin, CanonicalJournalsAndRoundsAreUnchanged) {
  constexpr int kTracked = 500;
  constexpr int kEdits = 60;
  const DeltaPinCase& pin = GetParam();
  data::ScopedStringPool pool;
  gen::GeneratorConfig config;
  config.num_tuples = kTracked + kEdits;  // the rest feeds new content
  config.master_size = 1000;
  config.seed = pin.seed;
  gen::Dataset ds = Generate(pin.dataset, config);
  auto engine = BuildEngine(ds);
  ASSERT_NE(engine, nullptr);

  data::Relation tracked(ds.dirty.schema_ptr());
  for (data::TupleId t = 0; t < kTracked; ++t) {
    tracked.AddTuple(ds.dirty.tuple(t));
  }
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&tracked).ok());

  Rng rng(pin.seed * 7919 + 17);
  data::TupleId next_content = kTracked;
  uint64_t digest = kFnvOffset;
  int full_reruns = 0;
  for (int k = 0; k < kEdits; ++k) {
    std::vector<data::TupleId> live;
    for (data::TupleId t = 0; t < tracked.size(); ++t) {
      if (tracked.live(t)) live.push_back(t);
    }
    Delta delta;
    const int64_t kind = rng.Uniform(0, 2);
    if (kind == 0) {
      delta.inserts.push_back(ds.dirty.tuple(next_content++));
    } else if (kind == 1) {
      delta.updates.emplace_back(live[rng.Index(live.size())],
                                 ds.dirty.tuple(next_content++));
    } else {
      delta.deletes.push_back(live[rng.Index(live.size())]);
    }
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << "edit " << k << ": " << dr.status().ToString();
    full_reruns += dr->full_rerun ? 1 : 0;
    std::ostringstream step;
    step << "edit " << k << " affected=" << dr->affected
         << " rounds=" << dr->refinement_rounds
         << " full=" << dr->full_rerun << "\n";
    ASSERT_TRUE(session.CanonicalJournal().WriteCsv(step).ok());
    digest = Fnv1a64(step.str(), digest);
  }
  EXPECT_EQ(Hex(digest), Hex(pin.digest)) << full_reruns << " full re-runs";
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, DeltaStreamPin,
    ::testing::Values(DeltaPinCase{"HOSP", 1, 0x2da2c9bd80befa0aull},
                      DeltaPinCase{"DBLP", 1, 0x1469a04c10f5e8a5ull},
                      DeltaPinCase{"TPCH", 1, 0xca001ada412758bdull}),
    [](const ::testing::TestParamInfo<DeltaPinCase>& info) {
      return std::string(info.param.dataset) + "_seed" +
             std::to_string(info.param.seed);
    });

// A stream shaped like perfbench's serve_delta: 1,000 tracked HOSP tuples
// against |Dm| = 1000, about 70% of DELTAs with one edit and 30% with
// sixteen, mixing updates, inserts and deletes while |D| stays near 1,000.
// No DELTA edits one tuple twice. Most DELTAs fall back to a full re-run,
// and a DELTA that stays incremental right after one seeds its closure
// through the violation groups that re-run refiled. The digests were
// recorded from a session that rebuilt its group index on every re-run.
struct DeltaBatchPinCase {
  uint64_t seed;
  uint64_t digest;  // running FNV-1a-64 over every DELTA's outcome
};

void PrintTo(const DeltaBatchPinCase& pin, std::ostream* os) {
  *os << "HOSP seed " << pin.seed;
}

class DeltaBatchPin : public ::testing::TestWithParam<DeltaBatchPinCase> {};

TEST_P(DeltaBatchPin, BatchedStreamOutcomesAreUnchanged) {
  constexpr int kStanding = 1000;
  constexpr int kHeldOut = 250;
  constexpr int kBatches = 40;
  constexpr int kLargeK = 16;
  const DeltaBatchPinCase& pin = GetParam();
  data::ScopedStringPool pool;
  gen::GeneratorConfig config;
  config.num_tuples = kStanding + kHeldOut;
  config.master_size = 1000;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = pin.seed;
  gen::Dataset ds = gen::GenerateHosp(config);
  auto engine = BuildEngine(ds);
  ASSERT_NE(engine, nullptr);

  data::Relation tracked(ds.dirty.schema_ptr());
  std::vector<data::TupleId> live;
  for (data::TupleId t = 0; t < kStanding; ++t) {
    live.push_back(tracked.AddTuple(ds.dirty.tuple(t)));
  }
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&tracked).ok());

  Rng rng(pin.seed * 7919 + 23);
  int cursor = 0;  // next held-out tuple, wrapping
  auto next_content = [&] {
    return ds.dirty.tuple(kStanding + cursor++ % kHeldOut);
  };
  uint64_t digest = kFnvOffset;
  int full_reruns = 0;
  int incremental_after_rerun = 0;
  bool previous_full = false;
  for (int b = 0; b < kBatches; ++b) {
    const int k = rng.Uniform(0, 9) < 3 ? kLargeK : 1;
    Delta delta;
    std::vector<data::TupleId> used;
    auto pick_unused_live = [&] {
      for (;;) {
        const data::TupleId t = live[rng.Index(live.size())];
        if (std::find(used.begin(), used.end(), t) == used.end()) {
          used.push_back(t);
          return t;
        }
      }
    };
    int size = static_cast<int>(live.size());
    for (int e = 0; e < k; ++e) {
      if (rng.Uniform(0, 1) == 0) {
        const data::TupleId t = pick_unused_live();
        delta.updates.emplace_back(t, next_content());
      } else if (size < kStanding ||
                 (size == kStanding && rng.Uniform(0, 1) == 0)) {
        delta.inserts.push_back(next_content());
        ++size;
      } else {
        delta.deletes.push_back(pick_unused_live());
        --size;
      }
    }
    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << "DELTA " << b << ": " << dr.status().ToString();
    full_reruns += dr->full_rerun ? 1 : 0;
    incremental_after_rerun += previous_full && !dr->full_rerun ? 1 : 0;
    previous_full = dr->full_rerun;
    std::ostringstream step;
    step << "delta " << b << " affected=" << dr->affected
         << " rounds=" << dr->refinement_rounds
         << " full=" << dr->full_rerun << " ids=";
    for (data::TupleId t : dr->inserted_ids) step << t << ",";
    step << "\n";
    ASSERT_TRUE(dr->delta_journal.WriteCsv(step).ok());
    ASSERT_TRUE(session.CanonicalJournal().WriteCsv(step).ok());
    digest = Fnv1a64(step.str(), digest);

    for (data::TupleId t : delta.deletes) {
      live.erase(std::find(live.begin(), live.end(), t));
    }
    live.insert(live.end(), dr->inserted_ids.begin(), dr->inserted_ids.end());
  }
  EXPECT_EQ(Hex(digest), Hex(pin.digest))
      << full_reruns << " full re-runs, " << incremental_after_rerun
      << " incremental DELTAs right after one";
  EXPECT_GT(incremental_after_rerun, 0) << full_reruns << " full re-runs";
}

INSTANTIATE_TEST_SUITE_P(
    Hosp, DeltaBatchPin,
    ::testing::Values(DeltaBatchPinCase{1, 0x4e09fedb701839c0ull},
                      DeltaBatchPinCase{3, 0x57df62dcd6d96982ull}),
    [](const ::testing::TestParamInfo<DeltaBatchPinCase>& info) {
      return "HOSP_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace uniclean
