// Tests for the interning layer: StringPool round-trip / dedup / null
// sentinel, its flat index (growth, memory bound), concurrent interning
// (StringPoolConcurrency, run under TSan in CI), the interned data::Value
// semantics, and the GroupKey integer keys the repair engines hash on.

#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/group_key.h"
#include "data/relation.h"
#include "data/string_pool.h"
#include "data/value.h"

namespace uniclean {
namespace data {
namespace {

TEST(StringPoolTest, RoundTripsInternedStrings) {
  StringPool pool;
  ValueId a = pool.Intern("Edinburgh");
  ValueId b = pool.Intern("London");
  EXPECT_EQ(pool.str(a), "Edinburgh");
  EXPECT_EQ(pool.str(b), "London");
  EXPECT_EQ(pool.view(a), "Edinburgh");
}

TEST(StringPoolTest, DedupsIdenticalStrings) {
  StringPool pool;
  size_t before = pool.size();
  ValueId a = pool.Intern("10 Oak St");
  ValueId b = pool.Intern(std::string("10 Oak St"));
  ValueId c = pool.Intern("10 Oak Street");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(pool.size(), before + 2);
}

TEST(StringPoolTest, EmptyStringIsPreInternedAtIdZero) {
  StringPool pool;
  EXPECT_EQ(pool.Intern(""), StringPool::kEmptyId);
  EXPECT_EQ(pool.str(StringPool::kEmptyId), "");
  EXPECT_GE(pool.size(), 1u);
}

TEST(StringPoolTest, NullSentinelIsNeverAValidId) {
  StringPool pool;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(pool.Intern("s" + std::to_string(i)), StringPool::kNullId);
  }
  // The sentinel still resolves to "" so printing code stays simple.
  EXPECT_EQ(pool.str(StringPool::kNullId), "");
}

TEST(StringPoolTest, StatsTrackOccupancy) {
  StringPool pool;
  StringPoolStats fresh = pool.Stats();
  EXPECT_EQ(fresh.interned, 1u);  // the pre-interned empty string
  EXPECT_EQ(fresh.capacity, size_t{1} << 28);
  EXPECT_EQ(fresh.remaining, fresh.capacity - fresh.interned);
  EXPECT_EQ(fresh.string_bytes, 0u);

  pool.Intern("Edinburgh");   // 9 chars
  pool.Intern("EH8");         // 3 chars
  pool.Intern("Edinburgh");   // dup: no new id, no new bytes
  StringPoolStats after = pool.Stats();
  EXPECT_EQ(after.interned, 3u);
  EXPECT_EQ(after.capacity, fresh.capacity);
  EXPECT_EQ(after.remaining, after.capacity - 3);
  EXPECT_EQ(after.string_bytes, 12u);
}

TEST(StringPoolTest, TryInternMatchesInternAndDedups) {
  StringPool pool;
  Result<ValueId> a = pool.TryIntern("10 Oak St");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a.value(), pool.Intern("10 Oak St"));
  Result<ValueId> b = pool.TryIntern("10 Oak St");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(pool.str(a.value()), "10 Oak St");
  // Exhaustion is not reachable in-test (2^28 ids); the failure contract —
  // Status::OutOfRange instead of a silently aliased id — is enforced by
  // the capacity guard TryIntern shares with Intern.
}

TEST(StringPoolTest, IndexGrowsAndStaysUnderTwiceTheLiveTable) {
  StringPool pool;
  const size_t initial_slots = pool.IndexSlots();
  std::vector<ValueId> ids;
  for (int i = 0; i < 20000; ++i) {
    ids.push_back(pool.Intern("cell-" + std::to_string(i)));
    EXPECT_EQ(ids.back(), static_cast<ValueId>(i + 1));  // first-seen order
  }
  EXPECT_GE(pool.IndexSlots(), initial_slots << 5);
  // Retired tables are smaller powers of two than the live one.
  const size_t live_bytes = pool.IndexSlots() * 8;
  EXPECT_LT(pool.IndexBytes(), 2 * live_bytes);
  // At most 3/4 full: about 10.7 to 21.3 bytes a string live, under 43 in
  // all, against ~56 for a node-based hash map.
  EXPECT_LE(pool.size() * 4, pool.IndexSlots() * 3);
  EXPECT_LT(pool.IndexBytes(), 43 * pool.size());
  for (int i = 0; i < 20000; ++i) {
    const std::string s = "cell-" + std::to_string(i);
    EXPECT_EQ(pool.Intern(s), ids[static_cast<size_t>(i)]);
    EXPECT_EQ(pool.str(ids[static_cast<size_t>(i)]), s);
  }
  EXPECT_EQ(pool.size(), 20001u);
}

TEST(StringPoolTest, CollidingPrefixesAndEmbeddedNulsStayDistinct) {
  // Strings that share 8-byte words, differ only in a tail byte or in
  // length, or hold NULs must each get their own id.
  StringPool pool;
  const std::vector<std::string> strings = {
      std::string("abcdefgh"),         std::string("abcdefgh\0", 9),
      std::string("abcdefgh\0\0", 10), std::string("abcdefghi"),
      std::string("abcdefghabcdefgh"), std::string("\0", 1),
      std::string("\0\0", 2),          std::string("abcdefg"),
  };
  std::unordered_set<ValueId> ids;
  for (const std::string& s : strings) ids.insert(pool.Intern(s));
  EXPECT_EQ(ids.size(), strings.size());
  for (const std::string& s : strings) {
    EXPECT_EQ(pool.str(pool.Intern(s)), s);
  }
  EXPECT_EQ(pool.size(), strings.size() + 1);
}

TEST(StringPoolConcurrency,
     FourThreadsInternOverlappingStringsWhileTheIndexGrows) {
  // Each string is interned by three of four threads, each thread in its
  // own shuffled order, from a fresh pool: the index grows many times
  // under the writers while the other threads' lookups run lock-free.
  constexpr int kStrings = 20000;
  constexpr int kThreads = 4;
  std::vector<std::string> strings;
  for (int i = 0; i < kStrings; ++i) {
    strings.push_back("v" + std::to_string(i * 7919 % 100003));
  }
  StringPool pool;
  const size_t initial_slots = pool.IndexSlots();
  std::vector<std::vector<ValueId>> ids(
      kThreads, std::vector<ValueId>(kStrings, StringPool::kNullId));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      std::vector<int> order;
      for (int i = 0; i < kStrings; ++i) {
        if ((i + k) % kThreads != 0) order.push_back(i);
      }
      Rng rng(static_cast<uint64_t>(100 + k));
      rng.Shuffle(&order);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i : order) {
        Result<ValueId> id = pool.TryIntern(strings[static_cast<size_t>(i)]);
        if (id.ok()) ids[static_cast<size_t>(k)][static_cast<size_t>(i)] = *id;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_GE(pool.IndexSlots(), initial_slots << 5);
  ASSERT_EQ(pool.size(), static_cast<size_t>(kStrings) + 1);
  std::vector<bool> taken(pool.size(), false);
  taken[StringPool::kEmptyId] = true;
  for (int i = 0; i < kStrings; ++i) {
    ValueId id = StringPool::kNullId;
    for (int k = 0; k < kThreads; ++k) {
      if ((i + k) % kThreads == 0) continue;  // thread k skipped string i
      const ValueId got = ids[static_cast<size_t>(k)][static_cast<size_t>(i)];
      ASSERT_NE(got, StringPool::kNullId) << "thread " << k << ", string " << i;
      if (id == StringPool::kNullId) id = got;
      ASSERT_EQ(got, id) << "string " << i << " got two ids";
    }
    ASSERT_LT(id, pool.size());
    ASSERT_FALSE(taken[id]) << "id " << id << " minted twice";
    taken[id] = true;
    EXPECT_EQ(pool.str(id), strings[static_cast<size_t>(i)]);
    EXPECT_EQ(pool.Intern(strings[static_cast<size_t>(i)]), id);
  }
}

TEST(StringPoolTest, ScopedPoolInstallsAndRestores) {
  Value outer("outer-value");
  {
    ScopedStringPool scoped;
    EXPECT_EQ(&StringPool::Global(), &scoped.pool());
    // The scoped pool starts fresh: only "" is interned.
    EXPECT_EQ(scoped.pool().size(), 1u);
    Value inner("inner-value");
    EXPECT_EQ(inner.str(), "inner-value");
  }
  // Outer values resolve again after the scope exits.
  EXPECT_EQ(outer.str(), "outer-value");
}

TEST(ValueInterningTest, EqualityIsIdEquality) {
  Value a("Edi");
  Value b("Edi");
  Value c("Ldn");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(Value::FromId(a.id()), a);
}

TEST(ValueInterningTest, NullSemantics) {
  Value null = Value::Null();
  Value empty;
  EXPECT_TRUE(null.is_null());
  EXPECT_FALSE(empty.is_null());
  EXPECT_NE(null, empty);
  EXPECT_EQ(null.str(), "");
  EXPECT_EQ(null.ToString(), "\\N");
  EXPECT_EQ(null.size(), 0u);
  // SQL simple semantics: null equals anything under SqlEquals.
  EXPECT_TRUE(Value::SqlEquals(null, Value("x")));
  EXPECT_TRUE(Value::SqlEquals(Value("x"), null));
  EXPECT_FALSE(Value::SqlEquals(Value("x"), Value("y")));
  // Strict ordering: null sorts first.
  EXPECT_TRUE(null < empty);
  EXPECT_FALSE(empty < null);
  // Hash separates null from the empty string.
  EXPECT_NE(ValueHash()(null), ValueHash()(empty));
}

TEST(ValueInterningTest, OrderingIsLexicographicOnStrings) {
  // Intern in reverse order so ids and lexicographic order disagree.
  Value z("zebra");
  Value a("apple");
  EXPECT_LT(z.id(), a.id());
  EXPECT_TRUE(a < z);
  EXPECT_FALSE(z < a);
}

// Randomized bijection property: id equality must coincide with string
// equality — this is the invariant that lets every engine compare ids where
// it used to compare characters.
TEST(ValueInterningTest, IdEqualityMatchesStringEquality) {
  Rng rng(7);
  std::vector<std::string> strings;
  for (int i = 0; i < 200; ++i) {
    std::string s;
    for (int k = static_cast<int>(rng.Uniform(0, 12)); k > 0; --k) {
      s.push_back(static_cast<char>('a' + rng.Uniform(0, 5)));
    }
    strings.push_back(s);
  }
  for (const std::string& s : strings) {
    for (const std::string& t : strings) {
      Value vs(s);
      Value vt(t);
      EXPECT_EQ(vs.id() == vt.id(), s == t) << "'" << s << "' vs '" << t
                                            << "'";
      EXPECT_EQ(vs == vt, s == t);
    }
  }
}

TEST(GroupKeyTest, ProjectsTupleValues) {
  Tuple t(3);
  t.set_value(0, Value("a"));
  t.set_value(1, Value("b"));
  t.set_value(2, Value("c"));
  std::vector<AttributeId> attrs{0, 2};
  GroupKey key = GroupKey::Project(t, attrs);
  EXPECT_EQ(key.size, 2u);
  EXPECT_EQ(key.parts[0], Value("a").id());
  EXPECT_EQ(key.parts[1], Value("c").id());
}

TEST(GroupKeyTest, EqualityAndHashAgree) {
  GroupKey a;
  a.Append(1);
  a.Append(2);
  GroupKey b;
  b.Append(1);
  b.Append(2);
  GroupKey c;
  c.Append(2);
  c.Append(1);
  GroupKey d;
  d.Append(1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);  // different length
  GroupKeyHash h;
  EXPECT_EQ(h(a), h(b));
}

TEST(GroupKeyTest, DistinguishesNullFromEmptyString) {
  Tuple t1(1);
  t1.set_value(0, Value::Null());
  Tuple t2(1);
  t2.set_value(0, Value(""));
  std::vector<AttributeId> attrs{0};
  EXPECT_NE(GroupKey::Project(t1, attrs), GroupKey::Project(t2, attrs));
}

}  // namespace
}  // namespace data
}  // namespace uniclean
