// The typed STATS model (src/serve/stats.h): the kStatsReply codec round
// trip, the JSON document perfbench and the smoke tests read (pinned as a
// golden), and the decoder against hostile bodies — every truncation,
// seeded byte mutations, a lying ruleset count, an lp length past the end,
// a malformed histogram token, trailing bytes and a pre-binary JSON reply.
// None of them may abort a client: each decodes or fails as Corruption,
// and whatever decodes renders.

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/latency_histogram.h"
#include "common/rng.h"
#include "serve/stats.h"
#include "serve/wire.h"

namespace uniclean {
namespace serve {
namespace {

std::string Token(std::initializer_list<uint64_t> samples) {
  LatencyHistogram h;
  for (uint64_t v : samples) h.Record(v);
  return h.Encode();
}

/// Every field distinct and non-zero, two rulesets (one name needs JSON
/// escaping) and a non-empty histogram per opcode.
StatsSnapshot DistinctSnapshot() {
  StatsSnapshot s;
  s.uptime_s = 12.25;
  s.connections_live = 2;
  s.connections_accepted = 3;
  s.sessions_live = 4;
  s.sessions_opened = 5;
  s.protocol_errors = 6;
  s.rejected = 7;
  s.cancelled = 8;
  s.deadline_exceeded = 9;
  for (int i = 0; i < kNumRequestOps; ++i) {
    OpStats& op = s.requests.ops[i];
    const uint64_t base = 100 * static_cast<uint64_t>(i + 1);
    op.count = base + 1;
    op.errors = base + 2;
    op.rejected = base + 3;
    op.cancelled = base + 4;
    op.deadline_exceeded = base + 5;
    op.hist = Token({base, 3 * base, 70 * base + 1});
  }
  for (int i = 0; i < 2; ++i) {
    RulesetStats r;
    const uint64_t base = 1000 * static_cast<uint64_t>(i + 1);
    r.name = i == 0 ? "hosp" : "dblp \"v2\"\\\n";
    r.fingerprint = 0x0123456789abcdefULL + base;
    r.reloads = base + 1;
    r.master_tuples = base + 2;
    r.cfds = base + 3;
    r.mds = base + 4;
    r.snapshot_source = "/snapshots/" + r.name + ".ucsnap";
    r.snapshot_load_s = 0.125 * static_cast<double>(i + 1);
    r.memo.entries = base + 5;
    r.memo.bytes = base + 6;
    r.memo.hits = base + 7;
    r.memo.misses = base + 8;
    r.memo.evictions = base + 9;
    s.rulesets.push_back(r);
  }
  s.string_pool.interned = 31;
  s.string_pool.capacity = 32;
  s.string_pool.remaining = 33;
  s.string_pool.chunks = 34;
  s.string_pool.string_bytes = 35;
  return s;
}

TEST(ServeStatsTest, RoundTripKeepsEveryFieldAndTheJson) {
  const StatsSnapshot original = DistinctSnapshot();
  const std::string body = EncodeStats(original);
  auto decoded = DecodeStats(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Every field is distinct, so equal bytes mean every field survived.
  EXPECT_EQ(EncodeStats(*decoded), body);
  EXPECT_EQ(StatsJson(*decoded), StatsJson(original));
  EXPECT_EQ(StatsSummary(*decoded), StatsSummary(original));
  EXPECT_EQ(decoded->uptime_s, 12.25);
  EXPECT_EQ(decoded->requests[Op::kCancel].deadline_exceeded, 705u);
  EXPECT_EQ(decoded->requests[Op::kPing].hist,
            original.requests[Op::kPing].hist);
  ASSERT_EQ(decoded->rulesets.size(), 2u);
  EXPECT_EQ(decoded->rulesets[1].name, "dblp \"v2\"\\\n");
  EXPECT_EQ(decoded->rulesets[1].snapshot_load_s, 0.25);
  EXPECT_EQ(decoded->rulesets[1].memo.evictions, 2009u);
  EXPECT_EQ(decoded->string_pool.capacity, 32u);
  EXPECT_NE(StatsJson(*decoded).find("\"name\": \"dblp \\\"v2\\\"\\\\\\n\""),
            std::string::npos);
}

TEST(ServeStatsTest, MergeSumsCountersAndMergesHistograms) {
  OpStats a;
  a.count = 2;
  a.errors = 1;
  a.hist = Token({10, 20});
  OpStats b;
  b.count = 3;
  b.rejected = 4;
  b.hist = Token({1500, 7, 20});
  a.Merge(b);
  a.Merge(OpStats());  // "" = no observations
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.errors, 1u);
  EXPECT_EQ(a.rejected, 4u);
  EXPECT_EQ(a.hist, Token({10, 20, 1500, 7, 20}));
}

/// A fixed snapshot whose JSON is pinned below.
StatsSnapshot GoldenSnapshot() {
  StatsSnapshot s;
  s.uptime_s = 3.5;
  s.connections_live = 1;
  s.connections_accepted = 2;
  s.sessions_opened = 1;
  s.rejected = 1;
  s.requests[Op::kPing].count = 2;
  s.requests[Op::kPing].hist = Token({10, 20});
  s.requests[Op::kClean].count = 1;
  s.requests[Op::kClean].rejected = 1;
  s.requests[Op::kClean].hist = Token({1500});
  RulesetStats hosp;
  hosp.name = "hosp";
  hosp.fingerprint = 0xdeadbeefULL;
  hosp.reloads = 1;
  hosp.master_tuples = 60;
  hosp.cfds = 6;
  hosp.mds = 3;
  hosp.memo.entries = 4;
  hosp.memo.bytes = 512;
  hosp.memo.hits = 30;
  hosp.memo.misses = 10;
  s.rulesets.push_back(hosp);
  RulesetStats quoted;
  quoted.name = "a\"b";
  quoted.fingerprint = 0x0123456789abcdefULL;
  quoted.master_tuples = 5;
  quoted.cfds = 1;
  quoted.mds = 1;
  quoted.snapshot_source = "/s/a.ucsnap";
  quoted.snapshot_load_s = 0.25;
  quoted.memo.entries = 1;
  quoted.memo.bytes = 64;
  quoted.memo.misses = 2;
  s.rulesets.push_back(quoted);
  s.string_pool.interned = 100;
  s.string_pool.capacity = 268435456;
  s.string_pool.remaining = 268435356;
  s.string_pool.string_bytes = 900;
  s.string_pool.chunks = 1;
  return s;
}

TEST(ServeStatsTest, JsonMatchesTheGoldenDocument) {
  // The keys, their order and the number formatting are what perfbench's
  // ReadEngineCounters and the smoke tests read.
  const std::string expected = R"json({
  "uptime_s": 3.500000,
  "connections": {"live": 1, "accepted": 2},
  "sessions": {"live": 0, "opened": 1},
  "protocol_errors": 0,
  "overload": {"rejected": 1, "cancelled": 0, "deadline_exceeded": 0},
  "requests": {
    "PING": {"count": 2, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 15, "p50": 10, "p95": 10, "p99": 10, "max": 20}, "hist": "v1,2,30,20,10=1,18=1"},
    "CLEAN": {"count": 1, "errors": 0, "rejected": 1, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 1500, "p50": 1500, "p95": 1500, "p99": 1500, "max": 1500}, "hist": "v1,1,1500,1500,67=1"},
    "DELTA": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "STATS": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "RELOAD": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "CLOSE_SESSION": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "CANCEL": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"}
  },
  "rulesets": [
    {"name": "hosp", "fingerprint": "00000000deadbeef", "reloads": 1, "master_tuples": 60, "cfds": 6, "mds": 3, "snapshot": {"source": "", "load_s": 0.000000}, "memo": {"entries": 4, "bytes": 512, "hits": 30, "misses": 10, "evictions": 0}},
    {"name": "a\"b", "fingerprint": "0123456789abcdef", "reloads": 0, "master_tuples": 5, "cfds": 1, "mds": 1, "snapshot": {"source": "/s/a.ucsnap", "load_s": 0.250000}, "memo": {"entries": 1, "bytes": 64, "hits": 0, "misses": 2, "evictions": 0}}
  ],
  "engine_memory": {"string_pool": {"interned": 100, "chunks": 1, "string_bytes": 900}, "memo": {"entries": 5, "bytes": 576}, "snapshot_warmed_engines": 1},
  "string_pool": {"interned": 100, "remaining": 268435356, "string_bytes": 900}
}
)json";
  EXPECT_EQ(StatsJson(GoldenSnapshot()), expected);
}

TEST(ServeStatsTest, SummaryMatchesTheGoldenText) {
  const std::string expected =
      "unicleand summary: 2 connection(s), 1 tracked session(s), 0 protocol "
      "error(s)\n"
      "  overload: 1 rejected, 0 cancelled, 0 deadline-exceeded\n"
      "  PING: 2 request(s), 0 error(s), latency_us count=2 mean=15 p50=10 "
      "p95=10 p99=10 max=20\n"
      "  CLEAN: 1 request(s), 0 error(s), 1 rejected, latency_us count=1 "
      "mean=1500 p50=1500 p95=1500 p99=1500 max=1500\n"
      "  ruleset hosp: 1 reload(s), memo hit rate 75.000000% (30/40)\n"
      "  ruleset a\"b: 0 reload(s), memo hit rate 0.000000% (0/2), "
      "warm-started from snapshot in 0.250000s\n";
  EXPECT_EQ(StatsSummary(GoldenSnapshot()), expected);
}

// ---------------------------------------------------------------------------
// Hostile bodies
// ---------------------------------------------------------------------------

/// A body either decodes — and then renders both ways — or is Corruption.
void ExpectDecodesOrCorruption(const std::string& body) {
  Result<StatsSnapshot> decoded = DecodeStats(body);
  if (decoded.ok()) {
    EXPECT_EQ(StatsJson(*decoded).back(), '\n');
    EXPECT_FALSE(StatsSummary(*decoded).empty());
  } else {
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << decoded.status().ToString();
  }
}

void ExpectCorruption(const std::string& body, const std::string& message) {
  Result<StatsSnapshot> decoded = DecodeStats(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(decoded.status().message().find(message), std::string::npos)
      << decoded.status().ToString();
}

void PutU32At(std::string* body, size_t at, uint32_t v) {
  std::string le;
  PutU32(&le, v);
  body->replace(at, 4, le);
}

/// Offset of the u32 ruleset count in a body with no rulesets.
size_t RulesetCountOffset(const std::string& body) {
  return body.size() - 4 - 5 * 8;  // count, then five string-pool u64s
}

TEST(ServeStatsTest, EveryTruncationIsCorruption) {
  const std::string body = EncodeStats(DistinctSnapshot());
  for (size_t n = 0; n < body.size(); ++n) {
    Result<StatsSnapshot> decoded = DecodeStats(body.substr(0, n));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
    ASSERT_EQ(decoded.status().code(), StatusCode::kCorruption) << n;
  }
}

TEST(ServeStatsTest, SeededMutationsNeverAbort) {
  const std::string bodies[] = {EncodeStats(DistinctSnapshot()),
                                EncodeStats(GoldenSnapshot()),
                                EncodeStats(StatsSnapshot())};
  Rng rng(20261017);
  for (int round = 0; round < 5000; ++round) {
    std::string body = bodies[round % 3];
    const int edits = static_cast<int>(rng.Uniform(1, 4));
    for (int e = 0; e < edits; ++e) {
      body[rng.Index(body.size())] = static_cast<char>(rng.Uniform(0, 255));
    }
    ExpectDecodesOrCorruption(body);
  }
}

TEST(ServeStatsTest, LyingRulesetCountRunsOutOfBytes) {
  std::string body = EncodeStats(StatsSnapshot());
  PutU32At(&body, RulesetCountOffset(body), 0xFFFFFFFFu);
  ExpectCorruption(body, "truncated");
}

TEST(ServeStatsTest, LpLengthPastTheEndIsCorruption) {
  std::string body = EncodeStats(StatsSnapshot());
  // The PING histogram token's length: after the version byte, the uptime
  // and eight daemon counters, and PING's five counters.
  PutU32At(&body, 1 + 8 + 8 * 8 + 5 * 8, 0x7FFFFFFFu);
  ExpectCorruption(body, "lp string declares");
}

TEST(ServeStatsTest, MalformedHistogramTokenIsCorruption) {
  for (const char* token : {"v2,1,2,3", "v1,1,2", "v1,1,2,3,99999=4",
                            "v1,1,2,3,", "{\"mean\": 1}"}) {
    StatsSnapshot s;
    s.requests[Op::kReload].hist = token;
    ExpectCorruption(EncodeStats(s), "malformed histogram token");
  }
}

TEST(ServeStatsTest, NonFiniteNumberIsCorruption) {
  StatsSnapshot s;
  s.uptime_s = std::numeric_limits<double>::quiet_NaN();
  ExpectCorruption(EncodeStats(s), "non-finite");
  StatsSnapshot t;
  RulesetStats r;
  r.snapshot_load_s = std::numeric_limits<double>::infinity();
  t.rulesets.push_back(r);
  ExpectCorruption(EncodeStats(t), "non-finite");
}

TEST(ServeStatsTest, TrailingBytesAreCorruption) {
  ExpectCorruption(EncodeStats(DistinctSnapshot()) + '\0', "trailing bytes");
}

TEST(ServeStatsTest, PreBinaryJsonReplyIsAnUnsupportedVersion) {
  // A daemon from before the binary body answered with the JSON document;
  // its '{' (123) reads as the version byte.
  ExpectCorruption(StatsJson(GoldenSnapshot()),
                   "stats: unsupported version 123");
  ExpectCorruption("", "truncated");
}

}  // namespace
}  // namespace serve
}  // namespace uniclean
