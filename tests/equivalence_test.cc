// Unit tests for the §7 equivalence-class machinery: the target lattice
// (unfixed -> constant -> null), frozen classes, and merge semantics.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/equivalence.h"

namespace uniclean {
namespace core {
namespace {

using data::Value;

TEST(EquivalenceTest, InitialStateIsSingletonUnfixed) {
  EquivalenceClasses eq(3, 4);
  EXPECT_EQ(eq.num_classes(), 12);
  for (int t = 0; t < 3; ++t) {
    for (int a = 0; a < 4; ++a) {
      CellId c = eq.Cell(t, a);
      EXPECT_EQ(eq.Find(c), c);
      EXPECT_EQ(eq.target_kind(c), TargetKind::kUnfixed);
      EXPECT_FALSE(eq.frozen(c));
      EXPECT_EQ(eq.Members(c).size(), 1u);
      EXPECT_EQ(eq.TupleOf(c), t);
      EXPECT_EQ(eq.AttrOf(c), a);
    }
  }
}

TEST(EquivalenceTest, LatticeUpgrades) {
  EquivalenceClasses eq(1, 1);
  CellId c = eq.Cell(0, 0);
  // unfixed -> constant
  EXPECT_TRUE(eq.SetConstant(c, Value("x")));
  EXPECT_EQ(eq.target_kind(c), TargetKind::kConstant);
  EXPECT_EQ(eq.target_constant(c), Value("x"));
  // same constant: no-op
  EXPECT_TRUE(eq.SetConstant(c, Value("x")));
  EXPECT_EQ(eq.target_kind(c), TargetKind::kConstant);
  // different constant: upgrade to null (never constant -> constant)
  EXPECT_TRUE(eq.SetConstant(c, Value("y")));
  EXPECT_EQ(eq.target_kind(c), TargetKind::kNull);
  // null is absorbing
  EXPECT_TRUE(eq.SetConstant(c, Value("z")));
  EXPECT_EQ(eq.target_kind(c), TargetKind::kNull);
}

TEST(EquivalenceTest, FrozenClassRejectsChanges) {
  EquivalenceClasses eq(1, 2);
  CellId c = eq.Cell(0, 0);
  eq.Freeze(c, Value("det"));
  EXPECT_TRUE(eq.frozen(c));
  EXPECT_EQ(eq.target_constant(c), Value("det"));
  EXPECT_TRUE(eq.SetConstant(c, Value("det")));   // same value ok
  EXPECT_FALSE(eq.SetConstant(c, Value("other")));
  EXPECT_EQ(eq.target_constant(c), Value("det"));  // unchanged
  EXPECT_FALSE(eq.SetNull(c));
  EXPECT_EQ(eq.target_kind(c), TargetKind::kConstant);
}

TEST(EquivalenceTest, MergeResolvesTargets) {
  EquivalenceClasses eq(4, 1);
  CellId a = eq.Cell(0, 0);
  CellId b = eq.Cell(1, 0);
  CellId c = eq.Cell(2, 0);
  CellId d = eq.Cell(3, 0);
  // unfixed + unfixed -> the winner constant.
  EXPECT_TRUE(eq.Merge(a, b, Value("w")));
  EXPECT_EQ(eq.target_kind(a), TargetKind::kConstant);
  EXPECT_EQ(eq.target_constant(b), Value("w"));
  EXPECT_EQ(eq.Members(a).size(), 2u);
  EXPECT_EQ(eq.num_classes(), 3);
  // null + constant -> null.
  EXPECT_TRUE(eq.SetNull(c));
  EXPECT_TRUE(eq.Merge(a, c, Value("w")));
  EXPECT_EQ(eq.target_kind(a), TargetKind::kNull);
  EXPECT_EQ(eq.Members(b).size(), 3u);
  // merging into the same class is a target update, not a union.
  int before = eq.num_classes();
  EXPECT_TRUE(eq.Merge(a, b, Value("w")));
  EXPECT_EQ(eq.num_classes(), before);
  (void)d;
}

TEST(EquivalenceTest, MergeWithFrozenKeepsFrozenConstant) {
  EquivalenceClasses eq(2, 1);
  CellId a = eq.Cell(0, 0);
  CellId b = eq.Cell(1, 0);
  eq.Freeze(a, Value("det"));
  EXPECT_TRUE(eq.SetConstant(b, Value("other")));
  EXPECT_TRUE(eq.Merge(a, b, Value("other")));  // winner arg loses to frozen
  EXPECT_TRUE(eq.frozen(b));
  EXPECT_EQ(eq.target_constant(b), Value("det"));
}

TEST(EquivalenceTest, TwoFrozenClassesWithDifferentConstantsCannotMerge) {
  EquivalenceClasses eq(2, 1);
  CellId a = eq.Cell(0, 0);
  CellId b = eq.Cell(1, 0);
  eq.Freeze(a, Value("x"));
  eq.Freeze(b, Value("y"));
  EXPECT_FALSE(eq.Merge(a, b, Value("x")));
  EXPECT_EQ(eq.num_classes(), 2);  // unchanged
  EXPECT_EQ(eq.target_constant(a), Value("x"));
  EXPECT_EQ(eq.target_constant(b), Value("y"));
  // Equal frozen constants merge fine.
  EquivalenceClasses eq2(2, 1);
  eq2.Freeze(eq2.Cell(0, 0), Value("same"));
  eq2.Freeze(eq2.Cell(1, 0), Value("same"));
  EXPECT_TRUE(eq2.Merge(eq2.Cell(0, 0), eq2.Cell(1, 0), Value("same")));
}

TEST(EquivalenceTest, MembersPartitionAllCells) {
  // Random unions: members lists always partition the cell universe.
  Rng rng(77);
  const int tuples = 20;
  const int arity = 5;
  EquivalenceClasses eq(tuples, arity);
  for (int op = 0; op < 60; ++op) {
    CellId a = eq.Cell(static_cast<int>(rng.Index(tuples)),
                       static_cast<int>(rng.Index(arity)));
    CellId b = eq.Cell(static_cast<int>(rng.Index(tuples)),
                       static_cast<int>(rng.Index(arity)));
    eq.Merge(a, b, Value("v" + std::to_string(op)));
  }
  std::set<CellId> seen;
  std::set<CellId> roots;
  for (CellId c = 0; c < tuples * arity; ++c) {
    roots.insert(eq.Find(c));
  }
  EXPECT_EQ(static_cast<int>(roots.size()), eq.num_classes());
  for (CellId root : roots) {
    for (CellId member : eq.Members(root)) {
      EXPECT_TRUE(seen.insert(member).second) << "duplicate member";
      EXPECT_EQ(eq.Find(member), root);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(tuples * arity));
}

TEST(EquivalenceTest, FindUsesPathCompressionConsistently) {
  EquivalenceClasses eq(8, 1);
  // Chain merges.
  for (int t = 1; t < 8; ++t) {
    EXPECT_TRUE(eq.Merge(eq.Cell(t - 1, 0), eq.Cell(t, 0), Value("v")));
  }
  CellId root = eq.Find(eq.Cell(0, 0));
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(eq.Find(eq.Cell(t, 0)), root);
  }
  EXPECT_EQ(eq.num_classes(), 1);
  EXPECT_EQ(eq.Members(root).size(), 8u);
}

TEST(EquivalenceTest, MembersKeepTheOrderOfAVectorPerClass) {
  // The reference keeps one vector per class, as the classes once did: a
  // merge appends the child root's vector to the surviving root's.
  // hRepair's cost sums run in Members() order, so it must match.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const int tuples = 12;
    const int arity = 3;
    EquivalenceClasses eq(tuples, arity);
    std::map<CellId, std::vector<CellId>> reference;
    for (CellId c = 0; c < tuples * arity; ++c) reference[c] = {c};
    for (int op = 0; op < 50; ++op) {
      const CellId a = eq.Cell(static_cast<int>(rng.Index(tuples)),
                               static_cast<int>(rng.Index(arity)));
      const CellId b = eq.Cell(static_cast<int>(rng.Index(tuples)),
                               static_cast<int>(rng.Index(arity)));
      if (rng.Bernoulli(0.1)) eq.Freeze(a, Value("f"));
      if (rng.Bernoulli(0.1)) eq.SetNull(b);
      const CellId ra = eq.Find(a);
      const CellId rb = eq.Find(b);
      if (!eq.Merge(a, b, Value("v" + std::to_string(op))) || ra == rb) {
        continue;
      }
      const CellId root = eq.Find(a);
      const CellId child = root == ra ? rb : ra;
      std::vector<CellId>& kept = reference[root];
      kept.insert(kept.end(), reference[child].begin(),
                  reference[child].end());
      reference.erase(child);
    }
    ASSERT_EQ(static_cast<int>(reference.size()), eq.num_classes());
    for (const auto& [root, expected] : reference) {
      ASSERT_EQ(eq.Find(root), root) << "seed " << seed;
      std::vector<CellId> members;
      for (CellId member : eq.Members(root)) members.push_back(member);
      EXPECT_EQ(members, expected) << "seed " << seed << " root " << root;
      EXPECT_EQ(eq.Members(root).size(), expected.size());
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace uniclean
