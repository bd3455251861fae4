// Differential sweep of Session::ApplyDelta. Seeded random streams of
// inserts, updates and deletes run over 300 tracked HOSP, DBLP and TPC-H
// tuples against |Dm| = 1000. After every DELTA the tracked session must
// equal a cold batch Run over the same edited relation: the canonical
// journal CSV byte for byte (provenance included), every live cell (value,
// confidence and mark), the tombstones and the ids minted for inserts.
//
// Two stream shapes run per generator:
//  * single: one edit per DELTA; insert, update and delete are equally
//    likely;
//  * batch: shaped like perfbench's serve_delta, 70% of DELTAs with one
//    edit and 30% with sixteen, mixing updates, inserts and deletes while
//    |D| stays near 300; no DELTA edits one tuple twice.
// New content comes from held-out generated tuples. A stream does not stop
// at its first divergence: the failure message counts the DELTAs that
// diverged and describes the first.

#include <algorithm>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/relation.h"
#include "data/string_pool.h"
#include "gen/dataset.h"
#include "uniclean/engine.h"
#include "uniclean/session.h"

namespace uniclean {
namespace {

constexpr int kTracked = 300;
constexpr int kHeldOut = 100;
constexpr int kDeltas = 40;
constexpr int kLargeK = 16;

enum class Shape { kSingle, kBatch };

struct SweepCase {
  const char* dataset;
  Shape shape;
  uint64_t seed;
};

const char* ShapeName(Shape shape) {
  return shape == Shape::kSingle ? "single" : "batch";
}

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.dataset << " " << ShapeName(c.shape) << " seed " << c.seed;
}

gen::Dataset Generate(const std::string& name, uint64_t seed) {
  gen::GeneratorConfig config;
  config.num_tuples = kTracked + kHeldOut;
  config.master_size = 1000;
  config.seed = seed;
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

std::string Csv(const FixJournal& journal) {
  std::ostringstream out;
  EXPECT_TRUE(journal.WriteCsv(out).ok());
  return out.str();
}

std::string Cell(const data::Relation& r, data::TupleId t,
                 data::AttributeId at) {
  return "(" + std::to_string(t) + ", " + r.schema().attribute_name(at) + ")";
}

/// The gravest difference between the tracked session and a cold run, or
/// "" when they agree. Values and the fix set come before confidences,
/// marks and provenance.
std::string FirstDifference(const Session& session,
                            const data::Relation& tracked,
                            const FixJournal& cold_journal,
                            const data::Relation& cold) {
  if (tracked.size() != cold.size()) {
    return "relation sizes " + std::to_string(tracked.size()) + " vs " +
           std::to_string(cold.size());
  }
  const int arity = tracked.schema().arity();
  for (data::TupleId t = 0; t < tracked.size(); ++t) {
    if (tracked.live(t) != cold.live(t)) {
      return "tombstone of tuple " + std::to_string(t);
    }
    if (!tracked.live(t)) continue;
    for (data::AttributeId at = 0; at < arity; ++at) {
      if (tracked.tuple(t).value(at) != cold.tuple(t).value(at)) {
        return "value of cell " + Cell(tracked, t, at);
      }
    }
  }
  const FixJournal canonical = session.CanonicalJournal();
  const FixJournal cold_canonical = cold_journal.Canonicalized();
  if (canonical.CanonicalFixSetCsv() != cold_canonical.CanonicalFixSetCsv()) {
    return "canonical fix set";
  }
  for (data::TupleId t = 0; t < tracked.size(); ++t) {
    if (!tracked.live(t)) continue;
    const data::Tuple& a = tracked.tuple(t);
    const data::Tuple& b = cold.tuple(t);
    for (data::AttributeId at = 0; at < arity; ++at) {
      if (a.confidence(at) != b.confidence(at) || a.mark(at) != b.mark(at)) {
        return "confidence or mark of cell " + Cell(tracked, t, at);
      }
    }
  }
  if (Csv(canonical) != Csv(cold_canonical)) return "journal provenance";
  return "";
}

class DeltaSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DeltaSweep, EveryDeltaEqualsAColdRun) {
  const SweepCase& c = GetParam();
  data::ScopedStringPool pool;
  gen::Dataset ds = Generate(c.dataset, c.seed);
  // The cold side gets its own engine, so no state of the tracked side's
  // environment or memos can reach the reference.
  auto engine = BuildEngine(ds);
  auto cold_engine = BuildEngine(ds);
  ASSERT_NE(engine, nullptr);
  ASSERT_NE(cold_engine, nullptr);

  // `edited` receives the same raw edits as the session and is never
  // cleaned: each cold run cleans a copy of it.
  data::Relation tracked(ds.dirty.schema_ptr());
  data::Relation edited(ds.dirty.schema_ptr());
  std::vector<data::TupleId> live;
  for (data::TupleId t = 0; t < kTracked; ++t) {
    tracked.AddTuple(ds.dirty.tuple(t));
    live.push_back(edited.AddTuple(ds.dirty.tuple(t)));
  }
  Session session = engine->NewTrackedSession();
  ASSERT_TRUE(session.Run(&tracked).ok());

  Rng rng(c.seed * 7919 + (c.shape == Shape::kSingle ? 11 : 23));
  int cursor = 0;  // next held-out tuple, wrapping
  auto next_content = [&] {
    return ds.dirty.tuple(kTracked + cursor++ % kHeldOut);
  };
  int diverged = 0;
  std::string first;
  for (int d = 0; d < kDeltas; ++d) {
    Delta delta;
    if (c.shape == Shape::kSingle) {
      const int64_t kind = rng.Uniform(0, 2);
      if (kind == 0) {
        delta.inserts.push_back(next_content());
      } else if (kind == 1) {
        delta.updates.emplace_back(live[rng.Index(live.size())],
                                   next_content());
      } else {
        delta.deletes.push_back(live[rng.Index(live.size())]);
      }
    } else {
      const int k = rng.Uniform(0, 9) < 3 ? kLargeK : 1;
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
        } else if (size < kTracked ||
                   (size == kTracked && rng.Uniform(0, 1) == 0)) {
          delta.inserts.push_back(next_content());
          ++size;
        } else {
          delta.deletes.push_back(pick_unused_live());
          --size;
        }
      }
    }

    auto dr = session.ApplyDelta(delta);
    ASSERT_TRUE(dr.ok()) << "DELTA " << d << ": " << dr.status().ToString();

    // The same edits, in ApplyDelta's order: updates, deletes, inserts.
    for (const auto& [t, tuple] : delta.updates) {
      edited.mutable_tuple(t) = tuple;
    }
    for (data::TupleId t : delta.deletes) {
      edited.EraseTuple(t);
      live.erase(std::find(live.begin(), live.end(), t));
    }
    std::vector<data::TupleId> minted;
    for (const data::Tuple& tuple : delta.inserts) {
      minted.push_back(edited.AddTuple(tuple));
    }
    live.insert(live.end(), minted.begin(), minted.end());

    data::Relation cold = edited.Clone();
    Session cold_session = cold_engine->NewSession();
    auto cold_run = cold_session.Run(&cold);
    ASSERT_TRUE(cold_run.ok()) << cold_run.status().ToString();
    std::string difference =
        dr->inserted_ids != minted
            ? "minted ids"
            : FirstDifference(session, tracked, cold_run->journal, cold);
    if (!difference.empty()) {
      if (diverged++ == 0) {
        first = "DELTA " + std::to_string(d) + ": " + difference;
      }
    }
  }
  EXPECT_EQ(diverged, 0) << diverged << " of " << kDeltas
                         << " DELTAs diverged from a cold run; first at "
                         << first;
}

INSTANTIATE_TEST_SUITE_P(
    Streams, DeltaSweep,
    ::testing::Values(SweepCase{"HOSP", Shape::kSingle, 1},
                      SweepCase{"HOSP", Shape::kBatch, 1},
                      SweepCase{"DBLP", Shape::kSingle, 1},
                      SweepCase{"DBLP", Shape::kBatch, 1},
                      SweepCase{"TPCH", Shape::kSingle, 1},
                      SweepCase{"TPCH", Shape::kBatch, 1}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(info.param.dataset) + "_" +
             ShapeName(info.param.shape) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace uniclean
