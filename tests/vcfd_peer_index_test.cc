// Unit tests of core::GroupKeyTable, the key-to-group-id table that both
// violation-group indexes keep their keys in, and of core::VcfdPeerIndex, a
// tracked session's violation groups: filing under current and pristine
// keys, refiling only what moved, unfiling, and dropping emptied groups.
// Seeded streams of inserts, updates, repairs, deletes and re-run refiles
// over three vCFDs with small, colliding value domains are checked after
// every step against a regrouping from scratch.

#include <algorithm>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/group_key_table.h"
#include "core/vcfd_peer_index.h"
#include "data/group_key.h"
#include "data/relation.h"
#include "data/schema.h"
#include "rules/parser.h"

namespace uniclean {
namespace core {
namespace {

using data::AttributeId;
using data::GroupKey;
using data::TupleId;
using data::Value;
using GroupId = VcfdPeerIndex::GroupId;
using Side = VcfdPeerIndex::Side;

GroupKey Key(std::initializer_list<data::ValueId> parts) {
  GroupKey key;
  for (data::ValueId id : parts) key.Append(id);
  return key;
}

TEST(GroupKeyTableTest, NumbersKeysDenselyInOrderOfFirstAdd) {
  GroupKeyTable table(2);
  EXPECT_EQ(table.size(), 0);
  EXPECT_EQ(table.Find(Key({1, 2})), -1);
  EXPECT_EQ(table.FindOrAdd(Key({1, 2})), 0);
  EXPECT_EQ(table.FindOrAdd(Key({2, 1})), 1);
  EXPECT_EQ(table.FindOrAdd(Key({1, 2})), 0);
  EXPECT_EQ(table.Find(Key({2, 1})), 1);
  EXPECT_EQ(table.Find(Key({2, 2})), -1);
  EXPECT_EQ(table.size(), 2);
  EXPECT_TRUE(table.KeyEquals(1, Key({2, 1})));
  EXPECT_FALSE(table.KeyEquals(1, Key({1, 2})));
  EXPECT_EQ(table.key(0), Key({1, 2}));
}

TEST(GroupKeyTableTest, GrowingKeepsEveryKeysGroup) {
  GroupKeyTable table(3);
  constexpr int kKeys = 5000;  // many doublings past the initial 16 slots
  for (int i = 0; i < kKeys; ++i) {
    const auto id = static_cast<data::ValueId>(i);
    ASSERT_EQ(table.FindOrAdd(Key({id % 7, id, id / 3})), i);
  }
  for (int i = 0; i < kKeys; ++i) {
    const auto id = static_cast<data::ValueId>(i);
    EXPECT_EQ(table.Find(Key({id % 7, id, id / 3})), i);
    EXPECT_EQ(table.key(i), Key({id % 7, id, id / 3}));
  }
  EXPECT_EQ(table.Find(Key({0, 1, 2})), -1);
}

TEST(GroupKeyTableTest, AnEmptyWidthHasOneKey) {
  GroupKeyTable table(0);
  EXPECT_EQ(table.Find(GroupKey{}), -1);
  EXPECT_EQ(table.FindOrAdd(GroupKey{}), 0);
  EXPECT_EQ(table.FindOrAdd(GroupKey{}), 0);
  EXPECT_EQ(table.size(), 1);
}

/// r(A, B, C, D) with three vCFDs whose LHSs overlap, plus a constant CFD
/// the index must ignore.
class VcfdPeerIndexTest : public ::testing::Test {
 protected:
  static constexpr AttributeId kB = 1;


  /// "" is the null value.
  static data::Tuple Row(const std::string& a, const std::string& b,
                         const std::string& c, const std::string& d) {
    data::Tuple t(4);
    const std::string cells[] = {a, b, c, d};
    for (AttributeId at = 0; at < 4; ++at) {
      const std::string& s = cells[at];
      t.set_value(at, s.empty() ? Value::Null() : Value(s));
    }
    return t;
  }

  static std::set<TupleId> Set(const VcfdPeerIndex& index, size_t i,
                               GroupId g) {
    std::set<TupleId> out;
    if (g < 0) return out;
    for (TupleId u : index.members(i, g)) {
      EXPECT_TRUE(out.insert(u).second) << "tuple " << u << " listed twice";
    }
    return out;
  }

  static rules::RuleSet MakeRules(const data::SchemaPtr& schema) {
    auto rules = rules::ParseRuleSet(
        "CFD f1: A -> B\n"
        "CFD k: A = \"k\" -> D = \"k\"\n"
        "CFD f2: A, C -> D\n"
        "CFD f3: B -> C\n",
        schema, data::MakeSchema("m", {"X"}));
    UC_CHECK(rules.ok()) << rules.status().ToString();
    return std::move(rules).value();
  }

  data::SchemaPtr schema_ = data::MakeSchema("r", {"A", "B", "C", "D"});
  rules::RuleSet rules_ = MakeRules(schema_);
};

TEST_F(VcfdPeerIndexTest, IndexesOnlyTheVariableCfds) {
  VcfdPeerIndex index(rules_);
  ASSERT_EQ(index.num_vcfds(), 3u);
  EXPECT_EQ(index.rule(0), 0);
  EXPECT_EQ(index.rule(1), 2);
  EXPECT_EQ(index.rule(2), 3);
}

TEST_F(VcfdPeerIndexTest, FilesThePristineKeyOnlyWhenItDiffers) {
  VcfdPeerIndex index(rules_);
  index.File(0, Row("a", "b", "c", "d"), Row("a", "b", "c", "d"));
  index.File(1, Row("a", "x", "c", "d"), Row("a", "b", "c", "d"));
  // f1: A -> B groups both under A = a, once each.
  const GroupId a = index.group_of(0, 0, Side::kCurrent);
  ASSERT_GE(a, 0);
  EXPECT_EQ(index.group_of(0, 1, Side::kCurrent), a);
  EXPECT_EQ(index.group_of(0, 0, Side::kPristine), -1);
  EXPECT_EQ(index.group_of(0, 1, Side::kPristine), -1);
  EXPECT_EQ(Set(index, 0, a), (std::set<TupleId>{0, 1}));
  EXPECT_EQ(index.num_filings(0), 2u);
  // f3: B -> C files tuple 1 under its repaired B = x and its pristine
  // B = b, where tuple 0 is.
  const GroupId b = index.group_of(2, 0, Side::kCurrent);
  const GroupId x = index.group_of(2, 1, Side::kCurrent);
  EXPECT_NE(b, x);
  EXPECT_EQ(index.group_of(2, 1, Side::kPristine), b);
  EXPECT_EQ(Set(index, 2, b), (std::set<TupleId>{0, 1}));
  EXPECT_EQ(Set(index, 2, x), (std::set<TupleId>{1}));
  EXPECT_EQ(index.num_filings(2), 3u);
  EXPECT_EQ(index.Find(2, GroupKey::Project(Row("", "x", "", ""),
                                            std::vector<AttributeId>{kB})),
            x);
  // Filing visits vCFD by vCFD, current side first.
  std::vector<std::pair<size_t, GroupId>> seen;
  index.ForEachGroupOf(1,
                       [&](size_t i, GroupId g) { seen.emplace_back(i, g); });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], std::make_pair(size_t{0}, a));
  EXPECT_EQ(seen[2], std::make_pair(size_t{2}, x));
  EXPECT_EQ(seen[3], std::make_pair(size_t{2}, b));
}

TEST_F(VcfdPeerIndexTest, RefilingMovesOnlyTheFilingsWhoseKeysMoved) {
  VcfdPeerIndex index(rules_);
  const data::Tuple pristine = Row("a", "b", "c", "d");
  index.File(0, pristine, pristine);
  index.File(1, pristine, pristine);
  const GroupId f1 = index.group_of(0, 1, Side::kCurrent);
  const GroupId f3 = index.group_of(2, 1, Side::kCurrent);

  // A repair moves tuple 1's B: f1 and f2 keep it, f3 files it twice.
  index.File(1, Row("a", "y", "c", "d"), pristine);
  EXPECT_EQ(index.group_of(0, 1, Side::kCurrent), f1);
  EXPECT_EQ(index.group_of(0, 1, Side::kPristine), -1);
  const GroupId y = index.group_of(2, 1, Side::kCurrent);
  EXPECT_NE(y, f3);
  EXPECT_EQ(index.group_of(2, 1, Side::kPristine), f3);
  EXPECT_EQ(Set(index, 2, f3), (std::set<TupleId>{0, 1}));
  EXPECT_EQ(Set(index, 2, y), (std::set<TupleId>{1}));

  // Repaired back: the pristine-side filing goes, the y group empties.
  index.File(1, pristine, pristine);
  EXPECT_EQ(index.group_of(2, 1, Side::kCurrent), f3);
  EXPECT_EQ(index.group_of(2, 1, Side::kPristine), -1);
  EXPECT_TRUE(Set(index, 2, y).empty());
  EXPECT_EQ(index.num_filings(2), 2u);

  // Unfiled, the tuple is in no group.
  index.Unfile(1);
  for (size_t i = 0; i < index.num_vcfds(); ++i) {
    EXPECT_EQ(index.group_of(i, 1, Side::kCurrent), -1);
    EXPECT_EQ(index.group_of(i, 1, Side::kPristine), -1);
  }
  EXPECT_EQ(Set(index, 0, f1), (std::set<TupleId>{0}));
  // Unfiling an id the index never grew to is a no-op.
  index.Unfile(50);
  EXPECT_EQ(index.group_of(0, 50, Side::kCurrent), -1);
}

TEST_F(VcfdPeerIndexTest, SameKeysReadsOnlyLhsAttributes) {
  const VcfdPeerIndex index(rules_);
  // D is no vCFD's LHS.
  EXPECT_TRUE(index.SameKeys(Row("a", "b", "c", "d"), Row("a", "b", "c", "e")));
  EXPECT_FALSE(
      index.SameKeys(Row("a", "b", "c", "d"), Row("a", "b", "e", "d")));
  EXPECT_FALSE(index.SameKeys(Row("a", "b", "c", "d"), Row("a", "", "c", "d")));
}

/// The tracked side of a seeded stream, and the regrouping from scratch the
/// index must equal.
class Model {
 public:
  Model(const VcfdPeerIndex& index, const rules::RuleSet& rules)
      : index_(index) {
    for (size_t i = 0; i < index.num_vcfds(); ++i) {
      lhs_.push_back(rules.cfd(index.rule(i)).lhs());
    }
  }

  std::vector<data::Tuple> current, pristine;
  std::vector<bool> live;

  /// Compares every group and every tuple's filings with a regrouping of
  /// the live tuples from scratch.
  void Check(const std::string& where) const {
    for (size_t i = 0; i < lhs_.size(); ++i) {
      std::map<std::vector<data::ValueId>, std::set<TupleId>> groups;
      size_t filings = 0;
      for (TupleId t = 0; t < static_cast<TupleId>(live.size()); ++t) {
        if (!live[static_cast<size_t>(t)]) continue;
        const GroupKey cur = Project(current, t, i);
        const GroupKey pri = Project(pristine, t, i);
        groups[Parts(cur)].insert(t);
        ++filings;
        if (pri != cur) {
          groups[Parts(pri)].insert(t);
          ++filings;
        }
      }
      ASSERT_EQ(index_.num_filings(i), filings) << where;
      for (TupleId t = 0; t < static_cast<TupleId>(live.size()); ++t) {
        const GroupId gc = index_.group_of(i, t, Side::kCurrent);
        const GroupId gp = index_.group_of(i, t, Side::kPristine);
        if (!live[static_cast<size_t>(t)]) {
          ASSERT_EQ(gc, -1) << where << ": dead tuple " << t;
          ASSERT_EQ(gp, -1) << where << ": dead tuple " << t;
          continue;
        }
        const GroupKey cur = Project(current, t, i);
        const GroupKey pri = Project(pristine, t, i);
        ASSERT_GE(gc, 0) << where << ": tuple " << t << " vCFD " << i;
        ASSERT_EQ(index_.Find(i, cur), gc) << where;
        ASSERT_EQ(Members(i, gc), groups[Parts(cur)])
            << where << ": current group of tuple " << t << " vCFD " << i;
        if (pri == cur) {
          ASSERT_EQ(gp, -1) << where << ": tuple " << t << " vCFD " << i;
        } else {
          ASSERT_GE(gp, 0) << where << ": tuple " << t << " vCFD " << i;
          ASSERT_EQ(index_.Find(i, pri), gp) << where;
          ASSERT_EQ(Members(i, gp), groups[Parts(pri)])
              << where << ": pristine group of tuple " << t << " vCFD " << i;
        }
      }
      // No group holds a member the regrouping does not file there.
      size_t listed = 0;
      for (GroupId g = 0; g < static_cast<GroupId>(index_.num_groups(i));
           ++g) {
        listed += Members(i, g).size();
      }
      ASSERT_EQ(listed, filings) << where;
    }
  }

 private:
  GroupKey Project(const std::vector<data::Tuple>& rel, TupleId t,
                   size_t i) const {
    return GroupKey::Project(rel[static_cast<size_t>(t)], lhs_[i]);
  }
  static std::vector<data::ValueId> Parts(const GroupKey& key) {
    return {key.parts, key.parts + key.size};
  }
  std::set<TupleId> Members(size_t i, GroupId g) const {
    std::set<TupleId> out;
    for (TupleId u : index_.members(i, g)) out.insert(u);
    return out;
  }

  const VcfdPeerIndex& index_;
  std::vector<std::vector<AttributeId>> lhs_;
};

/// A cell: mostly null, v1 or v2, so keys collide; one in five a value from
/// a domain of a billion, so groups keep emptying and get dropped.
Value RandomCell(Rng& rng) {
  const int64_t v = rng.Uniform(0, 9);
  if (v < 2) return Value::Null();
  if (v < 8) return Value("v" + std::to_string(v % 2 + 1));
  return Value("u" + std::to_string(rng.Uniform(0, 999'999'999)));
}

data::Tuple RandomRow(Rng& rng) {
  data::Tuple t(4);
  for (AttributeId a = 0; a < 4; ++a) t.set_value(a, RandomCell(rng));
  return t;
}

/// `t` with one or two cells redrawn.
data::Tuple Repaired(const data::Tuple& t, Rng& rng) {
  data::Tuple out = t;
  const int64_t cells = rng.Uniform(1, 2);
  for (int64_t k = 0; k < cells; ++k) {
    out.set_value(static_cast<AttributeId>(rng.Uniform(0, 3)),
                  RandomCell(rng));
  }
  return out;
}

class VcfdPeerIndexStreamTest : public VcfdPeerIndexTest,
                                public ::testing::WithParamInterface<int> {};

TEST_P(VcfdPeerIndexStreamTest, EqualsARegroupingFromScratchAfterEveryStep) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  VcfdPeerIndex index(rules_);
  Model model(index, rules_);
  auto file = [&](TupleId t) {
    index.File(t, model.current[static_cast<size_t>(t)],
               model.pristine[static_cast<size_t>(t)]);
  };
  for (TupleId t = 0; t < 40; ++t) {
    model.pristine.push_back(RandomRow(rng));
    model.current.push_back(rng.Bernoulli(0.5)
                                ? model.pristine.back()
                                : Repaired(model.pristine.back(), rng));
    model.live.push_back(true);
    file(t);
  }
  model.Check("build");
  auto random_live = [&]() -> TupleId {
    for (;;) {
      const auto t = static_cast<TupleId>(rng.Index(model.live.size()));
      if (model.live[static_cast<size_t>(t)]) return t;
    }
  };
  constexpr int kSteps = 600;
  int renumberings = 0;  // steps after which some vCFD had fewer groups
  for (int step = 0; step < kSteps; ++step) {
    std::vector<size_t> groups_before;
    for (size_t i = 0; i < index.num_vcfds(); ++i) {
      groups_before.push_back(index.num_groups(i));
    }
    const std::string where = "step " + std::to_string(step);
    const int64_t op = rng.Uniform(0, 4);
    int live_count = 0;
    for (bool l : model.live) live_count += l;
    if (op == 0 || live_count < 10) {  // insert: the index grows
      model.pristine.push_back(RandomRow(rng));
      model.current.push_back(model.pristine.back());
      model.live.push_back(true);
      file(static_cast<TupleId>(model.live.size() - 1));
    } else if (op == 1) {  // update: new pristine and current content
      const TupleId t = random_live();
      model.pristine[static_cast<size_t>(t)] = RandomRow(rng);
      model.current[static_cast<size_t>(t)] =
          model.pristine[static_cast<size_t>(t)];
      file(t);
    } else if (op == 2) {  // a committed repair: current moves only
      const TupleId t = random_live();
      model.current[static_cast<size_t>(t)] =
          Repaired(model.current[static_cast<size_t>(t)], rng);
      file(t);
    } else if (op == 3) {  // delete
      const TupleId t = random_live();
      index.Unfile(t);
      model.live[static_cast<size_t>(t)] = false;
    } else {  // a full re-run: refile only the tuples whose keys moved
      for (TupleId t = 0; t < static_cast<TupleId>(model.live.size()); ++t) {
        if (!model.live[static_cast<size_t>(t)] || !rng.Bernoulli(0.2)) {
          continue;
        }
        const data::Tuple rerun =
            rng.Bernoulli(0.5) ? model.pristine[static_cast<size_t>(t)]
                               : Repaired(model.current[static_cast<size_t>(t)],
                                          rng);
        const bool moved =
            !index.SameKeys(rerun, model.current[static_cast<size_t>(t)]);
        model.current[static_cast<size_t>(t)] = rerun;
        if (moved) file(t);
      }
    }
    model.Check(where);
    if (::testing::Test::HasFatalFailure()) return;
    for (size_t i = 0; i < index.num_vcfds(); ++i) {
      ASSERT_LE(index.num_groups(i), 2 * index.num_filings(i)) << where;
      if (index.num_groups(i) < groups_before[i]) {
        ++renumberings;
        break;
      }
    }
  }
  EXPECT_GT(renumberings, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcfdPeerIndexStreamTest,
                         ::testing::Range(1, 9));

TEST_F(VcfdPeerIndexTest, EmptiedGroupsDoNotAccumulateUnderChurn) {
  // Every update files a tuple under keys no tuple had before, so without
  // dropping emptied groups the group count would grow with the steps.
  Rng rng(5);
  VcfdPeerIndex index(rules_);
  constexpr TupleId kTuples = 50;
  std::vector<data::Tuple> pristine;
  for (TupleId t = 0; t < kTuples; ++t) {
    pristine.push_back(Row("a" + std::to_string(t % 5), "b", "c", "d"));
    index.File(t, pristine.back(), pristine.back());
  }
  constexpr int kSteps = 12000;
  size_t max_groups = 0;
  for (int step = 0; step < kSteps; ++step) {
    const auto t = static_cast<TupleId>(rng.Index(kTuples));
    const std::string fresh = std::to_string(step);
    if (step % 3 == 0) {
      index.Unfile(t);
      index.File(t, Row(fresh, "b", "c", "d"),
                 pristine[static_cast<size_t>(t)]);
    } else {
      pristine[static_cast<size_t>(t)] = Row(fresh, fresh, fresh, "d");
      index.File(t, pristine[static_cast<size_t>(t)],
                 pristine[static_cast<size_t>(t)]);
    }
    for (size_t i = 0; i < index.num_vcfds(); ++i) {
      ASSERT_LE(index.num_groups(i), 2 * index.num_filings(i))
          << "step " << step << " vCFD " << i;
      max_groups = std::max(max_groups, index.num_groups(i));
    }
  }
  EXPECT_LE(max_groups, 4u * kTuples);
  // Every tuple deleted: no group is left.
  for (TupleId t = 0; t < kTuples; ++t) index.Unfile(t);
  for (size_t i = 0; i < index.num_vcfds(); ++i) {
    EXPECT_EQ(index.num_filings(i), 0u);
    EXPECT_EQ(index.num_groups(i), 0u);
  }
}

}  // namespace
}  // namespace core
}  // namespace uniclean
