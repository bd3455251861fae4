// Unit tests of core::VcfdGroups, the violation-group index that eRepair and
// hRepair keep across fixpoint passes (§6.3, §7): grouping by LHS key,
// member order, refiling of touched tuples, the order of dirty groups,
// queueing during a resolution and the replay of clean groups' tallies.
// Small relations are checked by hand; seeded random edits are checked
// against a brute-force regrouping.

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "core/vcfd_groups.h"
#include "data/relation.h"
#include "data/schema.h"
#include "rules/parser.h"

namespace uniclean {
namespace core {
namespace {

using data::AttributeId;
using data::MakeSchema;
using data::Relation;
using data::SchemaPtr;
using data::TupleId;
using data::Value;
using GroupId = VcfdGroups::GroupId;
using Slot = VcfdGroups::Slot;
using Tally = VcfdGroups::Tally;

constexpr AttributeId kA = 0;
constexpr AttributeId kB = 1;
constexpr AttributeId kC = 2;

rules::RuleSet MakeRules(const std::string& text, SchemaPtr schema,
                         SchemaPtr master) {
  auto rs = rules::ParseRuleSet(text, schema, master);
  UC_CHECK(rs.ok()) << rs.status().ToString();
  return std::move(rs).value();
}

/// "" is the null value.
Value Cell(const std::string& s) {
  return s.empty() ? Value::Null() : Value(s);
}

/// Where these tests file a live tuple under a vCFD X -> B: nowhere when an
/// X value is null or C reads "out" (standing in for an LHS pattern the
/// tuple misses), among the nulls when B is null, among the valued
/// otherwise.
Slot SlotOf(const rules::Cfd& cfd, const data::Tuple& t) {
  for (AttributeId a : cfd.lhs()) {
    if (t.value(a).is_null()) return Slot::kNone;
  }
  if (t.value(kC) == Value("out")) return Slot::kNone;
  return t.value(cfd.rhs()[0]).is_null() ? Slot::kNull : Slot::kValued;
}

std::vector<TupleId> List(const VcfdGroups& groups, TupleId first) {
  std::vector<TupleId> out;
  for (TupleId t = first; t >= 0; t = groups.next(t)) out.push_back(t);
  return out;
}

std::vector<TupleId> Valued(const VcfdGroups& groups, GroupId g) {
  return List(groups, groups.first_valued(g));
}

std::vector<TupleId> Nulls(const VcfdGroups& groups, GroupId g) {
  return List(groups, groups.first_null(g));
}

std::vector<GroupId> Drain(VcfdGroups* groups) {
  std::vector<GroupId> out;
  for (GroupId g; (g = groups->Next()) >= 0;) out.push_back(g);
  return out;
}

std::set<GroupId> Visited(const VcfdGroups& groups) {
  return {groups.visited().begin(), groups.visited().end()};
}

std::vector<int> Fields(const Tally& t) {
  return {t.resolved, t.skipped, t.anomalies};
}

/// One vCFD, fd: A -> B, over r(A, B, C).
class VcfdGroupsTest : public ::testing::Test {
 protected:
  void Row(const std::string& a, const std::string& b,
           const std::string& c = "in") {
    data::Tuple t(3);
    t.set_value(kA, Cell(a));
    t.set_value(kB, Cell(b));
    t.set_value(kC, Cell(c));
    d_.AddTuple(std::move(t));
  }

  void Set(TupleId t, AttributeId a, const std::string& v) {
    d_.mutable_tuple(t).set_value(a, Cell(v));
  }

  void Open(VcfdGroups* groups) {
    ASSERT_EQ(rules_.kind(0), rules::RuleKind::kVariableCfd);
    const rules::Cfd& cfd = rules_.cfd(0);
    groups->Open(0, [&](TupleId t) { return SlotOf(cfd, d_.tuple(t)); });
  }

  /// Opens, examines every queued group, records `tallies` in the order
  /// Next() yields the groups, and closes. Returns the groups yielded.
  std::vector<GroupId> Resolve(VcfdGroups* groups,
                               const std::vector<Tally>& tallies = {}) {
    Open(groups);
    std::vector<GroupId> yielded = Drain(groups);
    for (size_t i = 0; i < yielded.size() && i < tallies.size(); ++i) {
      groups->SetTally(yielded[i], tallies[i]);
    }
    groups->Close();
    return yielded;
  }

  SchemaPtr schema_ = MakeSchema("r", {"A", "B", "C"});
  SchemaPtr master_ = MakeSchema("m", {"X"});
  Relation d_{schema_};
  rules::RuleSet rules_ = MakeRules("CFD fd: A -> B\n", schema_, master_);
};

TEST_F(VcfdGroupsTest, FirstOpenFilesEveryLiveTupleByItsLhsInTupleOrder) {
  Row("a", "x");         // 0
  Row("b", "y");         // 1
  Row("a", "");          // 2
  Row("a", "z");         // 3
  Row("b", "y", "out");  // 4: outside the pattern
  Row("c", "");          // 5: a group of nulls only
  Row("b", "w");         // 6
  Row("", "v");          // 7: null LHS
  VcfdGroups groups(d_, rules_);
  groups.BeginPass();
  Open(&groups);
  ASSERT_EQ(groups.visited().size(), 3u);
  // Queued by first valued member; a group without one is not queued.
  const std::vector<GroupId> yielded = Drain(&groups);
  ASSERT_EQ(yielded.size(), 2u);
  const GroupId ga = yielded[0];
  const GroupId gb = yielded[1];
  EXPECT_EQ(Valued(groups, ga), (std::vector<TupleId>{0, 3}));
  EXPECT_EQ(Nulls(groups, ga), (std::vector<TupleId>{2}));
  EXPECT_EQ(Valued(groups, gb), (std::vector<TupleId>{1, 6}));
  EXPECT_TRUE(Nulls(groups, gb).empty());
  GroupId gc = -1;
  for (GroupId g : groups.visited()) {
    if (g != ga && g != gb) gc = g;
  }
  ASSERT_GE(gc, 0);
  EXPECT_TRUE(Valued(groups, gc).empty());
  EXPECT_EQ(Nulls(groups, gc), (std::vector<TupleId>{5}));
  groups.Close();
}

TEST_F(VcfdGroupsTest, AnUntouchedRuleExaminesNothingAndReplaysItsTallies) {
  Row("a", "x");
  Row("b", "y");
  Row("a", "z");
  Row("c", "w");
  VcfdGroups groups(d_, rules_);
  groups.BeginPass();
  Open(&groups);
  const std::vector<GroupId> yielded = Drain(&groups);
  ASSERT_EQ(yielded.size(), 3u);
  groups.SetTally(yielded[0], Tally{1, 0, 0});
  groups.SetTally(yielded[1], Tally{0, 1, 0});
  groups.SetTally(yielded[2], Tally{0, 0, 2});
  EXPECT_EQ(Fields(groups.tally_sum()), (std::vector<int>{1, 1, 2}));
  groups.Close();

  groups.BeginPass();
  Open(&groups);
  EXPECT_TRUE(groups.visited().empty());
  EXPECT_EQ(groups.Next(), -1);
  EXPECT_EQ(Fields(groups.tally_sum()), (std::vector<int>{1, 1, 2}));
  groups.Close();
}

TEST_F(VcfdGroupsTest, ATupleThatChangesGroupDirtiesTheGroupItLeftAndJoined) {
  Row("a", "x");  // 0
  Row("b", "y");  // 1
  Row("a", "x");  // 2
  Row("c", "z");  // 3
  Row("b", "y");  // 4
  Row("c", "z");  // 5
  VcfdGroups groups(d_, rules_);
  groups.BeginPass();
  const std::vector<GroupId> first =
      Resolve(&groups, {Tally{1, 0, 0}, Tally{0, 1, 0}, Tally{0, 0, 1}});
  ASSERT_EQ(first.size(), 3u);
  const GroupId ga = first[0], gb = first[1], gc = first[2];

  groups.BeginPass();
  Set(2, kA, "b");
  groups.Touch(2);
  Open(&groups);
  EXPECT_EQ(Visited(groups), (std::set<GroupId>{ga, gb}));
  // Only the clean group's tally is replayed.
  EXPECT_EQ(Fields(groups.tally_sum()), (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(Valued(groups, ga), (std::vector<TupleId>{0}));
  EXPECT_EQ(Valued(groups, gb), (std::vector<TupleId>{1, 2, 4}));
  EXPECT_EQ(Valued(groups, gc), (std::vector<TupleId>{3, 5}));
  EXPECT_EQ(Drain(&groups), (std::vector<GroupId>{ga, gb}));
  groups.Close();
}

TEST_F(VcfdGroupsTest, ATouchedTupleThatStaysInItsGroupDirtiesOnlyThatGroup) {
  Row("a", "x");  // 0
  Row("a", "x");  // 1
  Row("b", "y");  // 2
  VcfdGroups groups(d_, rules_);
  groups.BeginPass();
  const std::vector<GroupId> first = Resolve(&groups);
  ASSERT_EQ(first.size(), 2u);
  const GroupId ga = first[0];

  // B turns null: the tuple moves to its group's null list.
  groups.BeginPass();
  Set(1, kB, "");
  groups.Touch(1);
  Open(&groups);
  EXPECT_EQ(Visited(groups), (std::set<GroupId>{ga}));
  EXPECT_EQ(Valued(groups, ga), (std::vector<TupleId>{0}));
  EXPECT_EQ(Nulls(groups, ga), (std::vector<TupleId>{1}));
  EXPECT_EQ(Drain(&groups), (std::vector<GroupId>{ga}));
  groups.Close();

  // A touch dirties the group even when no cell of the tuple changed (a
  // class merge elsewhere touches every member of the class).
  groups.BeginPass();
  groups.Touch(0);
  Open(&groups);
  EXPECT_EQ(Visited(groups), (std::set<GroupId>{ga}));
  EXPECT_EQ(Drain(&groups), (std::vector<GroupId>{ga}));
  groups.Close();
}

TEST_F(VcfdGroupsTest, ATouchDuringAResolutionQueuesOnlyGroupsNotYetPassed) {
  Row("a", "x");  // 0
  Row("b", "y");  // 1
  Row("c", "z");  // 2
  Row("d", "w");  // 3
  VcfdGroups groups(d_, rules_);
  groups.BeginPass();
  const std::vector<GroupId> first = Resolve(
      &groups,
      {Tally{0, 0, 1}, Tally{0, 0, 2}, Tally{0, 0, 4}, Tally{0, 0, 8}});
  ASSERT_EQ(first.size(), 4u);
  const GroupId ga = first[0], gb = first[1], gc = first[2];

  groups.BeginPass();
  groups.Touch(1);
  Open(&groups);
  EXPECT_EQ(Fields(groups.tally_sum()), (std::vector<int>{0, 0, 13}));
  ASSERT_EQ(groups.Next(), gb);
  groups.SetTally(gb, Tally{0, 0, 16});
  EXPECT_EQ(Fields(groups.tally_sum()), (std::vector<int>{0, 0, 29}));
  // a was passed: it is listed as visited and keeps its tally.
  groups.Touch(0);
  EXPECT_EQ(Fields(groups.tally_sum()), (std::vector<int>{0, 0, 29}));
  // c comes later: it is queued with its tally cleared, once.
  groups.Touch(2);
  groups.Touch(2);
  groups.Touch(1);  // already dirty: no change
  EXPECT_EQ(Fields(groups.tally_sum()), (std::vector<int>{0, 0, 25}));
  ASSERT_EQ(groups.Next(), gc);
  groups.SetTally(gc, Tally{0, 0, 32});
  EXPECT_EQ(groups.Next(), -1);
  EXPECT_EQ(Visited(groups), (std::set<GroupId>{ga, gb, gc}));
  EXPECT_EQ(Fields(groups.tally_sum()), (std::vector<int>{0, 0, 57}));
  groups.Close();

  // The tuples touched during a resolution are refiled at the rule's next
  // one, and their groups are examined again there.
  groups.BeginPass();
  Open(&groups);
  EXPECT_EQ(Visited(groups), (std::set<GroupId>{ga, gb, gc}));
  EXPECT_EQ(Drain(&groups), (std::vector<GroupId>{ga, gb, gc}));
  groups.Close();
}

TEST_F(VcfdGroupsTest, AnErasedTupleLeavesItsGroup) {
  Row("a", "x");  // 0
  Row("a", "y");  // 1
  Row("b", "z");  // 2
  VcfdGroups groups(d_, rules_);
  groups.BeginPass();
  const std::vector<GroupId> first = Resolve(&groups);
  ASSERT_EQ(first.size(), 2u);
  const GroupId ga = first[0], gb = first[1];

  groups.BeginPass();
  d_.EraseTuple(1);
  groups.Touch(1);
  Open(&groups);
  EXPECT_EQ(Visited(groups), (std::set<GroupId>{ga}));
  EXPECT_EQ(Valued(groups, ga), (std::vector<TupleId>{0}));
  EXPECT_EQ(Drain(&groups), (std::vector<GroupId>{ga}));
  groups.Close();

  // An emptied group is dirty but has nothing to examine.
  groups.BeginPass();
  d_.EraseTuple(2);
  groups.Touch(2);
  Open(&groups);
  EXPECT_EQ(Visited(groups), (std::set<GroupId>{gb}));
  EXPECT_TRUE(Valued(groups, gb).empty());
  EXPECT_EQ(groups.Next(), -1);
  groups.Close();
}

TEST_F(VcfdGroupsTest, TouchedSincePreviousPassSpansThisPassAndThePrevious) {
  Row("a", "x");
  Row("b", "y");
  Row("c", "z");
  VcfdGroups groups(d_, rules_);
  // The first pass examines every tuple.
  groups.BeginPass();
  for (TupleId t = 0; t < 3; ++t) {
    EXPECT_TRUE(groups.TouchedSincePreviousPass(t));
  }
  groups.Touch(0);

  groups.BeginPass();
  EXPECT_TRUE(groups.TouchedSincePreviousPass(0));
  EXPECT_FALSE(groups.TouchedSincePreviousPass(1));
  EXPECT_FALSE(groups.TouchedSincePreviousPass(2));
  groups.Touch(1);
  Resolve(&groups);  // an Open ticks the clock inside the pass
  groups.Touch(2);

  groups.BeginPass();
  EXPECT_FALSE(groups.TouchedSincePreviousPass(0));
  EXPECT_TRUE(groups.TouchedSincePreviousPass(1));
  EXPECT_TRUE(groups.TouchedSincePreviousPass(2));

  groups.BeginPass();
  for (TupleId t = 0; t < 3; ++t) {
    EXPECT_FALSE(groups.TouchedSincePreviousPass(t));
  }
}

// Seeded random edits, erasures, touches and resolutions of two vCFDs over
// one relation. After every Open the index is checked against a brute-force
// regrouping of the live tuples and against a model of its contract: the
// member lists, the exact set of dirty groups, the groups Next() yields and
// their order, queueing during a resolution, the running tally sum, and
// TouchedSincePreviousPass.
class VcfdGroupsRandomOps : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VcfdGroupsRandomOps, MatchesABruteForceRegrouping) {
  Rng rng(GetParam());
  const SchemaPtr schema = MakeSchema("r", {"A", "B", "C"});
  const SchemaPtr master = MakeSchema("m", {"X"});
  const rules::RuleSet rs =
      MakeRules("CFD fd: A, C -> B\nCFD g: B -> A\n", schema, master);
  ASSERT_EQ(rs.num_rules(), 2);
  for (rules::RuleId r = 0; r < rs.num_rules(); ++r) {
    ASSERT_EQ(rs.kind(r), rules::RuleKind::kVariableCfd);
  }
  const std::vector<std::vector<std::string>> vocab = {
      {"", "a0", "a1", "a2", "a3"}, {"", "x", "y", "z"}, {"c0", "c1", "out"}};
  auto draw = [&](AttributeId a) {
    return Cell(rng.Choice(vocab[static_cast<size_t>(a)]));
  };
  constexpr int kTuples = 48;
  Relation d(schema);
  for (int i = 0; i < kTuples; ++i) {
    data::Tuple t(3);
    for (AttributeId a = 0; a < 3; ++a) t.set_value(a, draw(a));
    d.AddTuple(std::move(t));
  }
  VcfdGroups groups(d, rs);

  struct Filing {
    GroupId group = -1;
    Slot slot = Slot::kNone;
  };
  struct RuleModel {
    std::set<GroupId> known;     // every group id the index has listed
    std::vector<Filing> filing;  // per tuple, as of the last Open
    std::set<TupleId> pending;   // touched since the last Open began
    std::map<GroupId, Tally> tally;
  };
  std::vector<RuleModel> model(static_cast<size_t>(rs.num_rules()));
  for (RuleModel& m : model) {
    m.filing.assign(kTuples, Filing{});
    for (TupleId t = 0; t < kTuples; ++t) m.pending.insert(t);
  }
  int pass = 0;
  std::vector<int> touched_in_pass(kTuples, 0);  // 0: before the first
  // How often each case came up, so the run cannot pass vacuously.
  int moves = 0, yields = 0, queued_late = 0, kept_late = 0;

  auto sum = [](const std::map<GroupId, Tally>& tallies) {
    Tally s;
    for (const auto& [g, t] : tallies) {
      s.resolved += t.resolved;
      s.skipped += t.skipped;
      s.anomalies += t.anomalies;
    }
    return s;
  };
  // Changes one cell of a random tuple, or now and then erases it, and
  // touches it, as a fix landing would.
  auto edit = [&]() {
    const TupleId t = static_cast<TupleId>(rng.Index(kTuples));
    if (d.live(t) && rng.Bernoulli(0.03)) {
      d.EraseTuple(t);
    } else {
      const AttributeId a = static_cast<AttributeId>(rng.Index(3));
      d.mutable_tuple(t).set_value(a, draw(a));
    }
    groups.Touch(t);
    for (RuleModel& m : model) m.pending.insert(t);
    touched_in_pass[static_cast<size_t>(t)] = pass;
    return t;
  };

  for (int step = 0; step < 30; ++step) {
    groups.BeginPass();
    ++pass;
    for (TupleId t = 0; t < kTuples; ++t) {
      ASSERT_EQ(groups.TouchedSincePreviousPass(t),
                touched_in_pass[static_cast<size_t>(t)] >= pass - 1)
          << "tuple " << t << ", pass " << pass;
    }
    for (rules::RuleId r = 0; r < rs.num_rules(); ++r) {
      RuleModel& m = model[static_cast<size_t>(r)];
      const rules::Cfd& cfd = rs.cfd(r);
      for (int64_t k = rng.Uniform(0, 4); k > 0; --k) edit();
      groups.Open(r, [&](TupleId t) { return SlotOf(cfd, d.tuple(t)); });

      std::set<GroupId> visited = Visited(groups);
      ASSERT_EQ(visited.size(), groups.visited().size()) << "listed twice";
      m.known.insert(visited.begin(), visited.end());
      // The index's filing of every tuple, read off the member lists.
      std::vector<Filing> filing(kTuples);
      for (GroupId g : m.known) {
        for (Slot slot : {Slot::kValued, Slot::kNull}) {
          TupleId prev = -1;
          const TupleId head = slot == Slot::kValued ? groups.first_valued(g)
                                                     : groups.first_null(g);
          for (TupleId t = head; t >= 0; t = groups.next(t)) {
            ASSERT_GT(t, prev) << "group " << g << " out of order";
            prev = t;
            Filing& f = filing[static_cast<size_t>(t)];
            ASSERT_EQ(f.group, -1) << "tuple " << t << " filed twice";
            f = Filing{g, slot};
          }
        }
      }
      // Brute force: a live tuple files where SlotOf says, and two tuples
      // share a group exactly when their LHS projections are equal.
      std::map<std::vector<data::ValueId>, GroupId> group_of_key;
      for (TupleId t = 0; t < kTuples; ++t) {
        const Filing& f = filing[static_cast<size_t>(t)];
        const Slot want = d.live(t) ? SlotOf(cfd, d.tuple(t)) : Slot::kNone;
        ASSERT_EQ(f.slot, want) << "tuple " << t << ", rule " << r;
        if (want == Slot::kNone) continue;
        std::vector<data::ValueId> key;
        for (AttributeId a : cfd.lhs()) key.push_back(d.tuple(t).value(a).id());
        const auto it = group_of_key.emplace(key, f.group).first;
        ASSERT_EQ(it->second, f.group)
            << "tuple " << t << " split from its key";
      }
      std::set<GroupId> distinct;
      for (const auto& [key, g] : group_of_key) {
        ASSERT_TRUE(distinct.insert(g).second)
            << "group " << g << " mixes keys";
      }
      // Dirty: the group each pending tuple files in now, and the one it
      // left.
      std::set<GroupId> dirty;
      for (TupleId t : m.pending) {
        const Filing& now = filing[static_cast<size_t>(t)];
        const Filing& was = m.filing[static_cast<size_t>(t)];
        if (now.slot != Slot::kNone) dirty.insert(now.group);
        if (was.group >= 0 &&
            (was.group != now.group || was.slot != now.slot)) {
          dirty.insert(was.group);
          ++moves;
        }
      }
      ASSERT_EQ(visited, dirty);
      m.filing = filing;
      m.pending.clear();

      std::set<GroupId> queued;
      for (GroupId g : dirty) {
        m.tally[g] = Tally{};
        if (groups.first_valued(g) >= 0) queued.insert(g);
      }
      ASSERT_EQ(Fields(groups.tally_sum()), Fields(sum(m.tally)));
      TupleId current = -1;
      for (;;) {
        // Fixes land during the resolution: a touched clean group is queued
        // when Next() has not passed it, and otherwise keeps its tally.
        for (int64_t k = rng.Uniform(0, 2); k > 0; --k) {
          const GroupId h = m.filing[static_cast<size_t>(edit())].group;
          if (h < 0 || !visited.insert(h).second) continue;
          if (groups.first_valued(h) > current) {
            queued.insert(h);
            m.tally[h] = Tally{};
            ++queued_late;
          } else {
            ++kept_late;
          }
        }
        ASSERT_EQ(Fields(groups.tally_sum()), Fields(sum(m.tally)));
        const GroupId g = groups.Next();
        if (g < 0) break;
        ASSERT_EQ(queued.erase(g), 1u) << "group " << g << " not queued";
        ASSERT_GT(groups.first_valued(g), current);
        current = groups.first_valued(g);
        const Tally tally{static_cast<int>(rng.Uniform(0, 3)),
                          static_cast<int>(rng.Uniform(0, 3)),
                          static_cast<int>(rng.Uniform(0, 3))};
        groups.SetTally(g, tally);
        m.tally[g] = tally;
        ++yields;
      }
      EXPECT_TRUE(queued.empty());
      ASSERT_EQ(Visited(groups), visited);
      groups.Close();
    }
  }
  EXPECT_GT(moves, 0);
  EXPECT_GT(yields, 0);
  EXPECT_GT(queued_late, 0);
  EXPECT_GT(kept_late, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcfdGroupsRandomOps,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 13));

}  // namespace
}  // namespace core
}  // namespace uniclean
