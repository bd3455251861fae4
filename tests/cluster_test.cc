// The cluster layer (src/cluster): ring determinism and minimal movement,
// membership hysteresis, spec parsing, and the routing contract over real
// in-process daemons — routed CLEAN journals byte-identical to the
// single-daemon run, failover when the primary dies mid-workload, DELTA
// session pinning (never cross-replica), merged STATS equal to the sum of
// per-replica counters, unix-socket parity, and retry-seed determinism.
// Also the TSan target for the prober + routing threads.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_client.h"
#include "cluster/membership.h"
#include "cluster/ring.h"
#include "cluster/spec.h"
#include "common/latency_histogram.h"
#include "common/rng.h"
#include "data/csv.h"
#include "gen/dataset.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "uniclean/engine.h"
#include "uniclean/session.h"

namespace uniclean {
namespace cluster {
namespace {

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

std::vector<std::string> TestKeys(int n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) keys.push_back("ruleset_" + std::to_string(i));
  return keys;
}

/// The ring over `names` with default options; fails the test on a bad
/// name list.
Ring MakeRing(const std::vector<std::string>& names) {
  Result<Ring> ring = Ring::Make(names);
  EXPECT_TRUE(ring.ok()) << ring.status().ToString();
  return ring.ok() ? std::move(ring).value() : Ring();
}

TEST(RingTest, DeterministicAcrossInstances) {
  // Name order must not matter.
  const Ring a = MakeRing({"r1", "r2", "r3", "r4"});
  const Ring b = MakeRing({"r4", "r2", "r1", "r3"});
  EXPECT_EQ(a.replicas(), b.replicas());
  for (const std::string& key : TestKeys(500)) {
    EXPECT_EQ(a.Owners(key, 3), b.Owners(key, 3)) << key;
  }
}

TEST(RingTest, OwnersAreDistinctAndOrdered) {
  const Ring ring = MakeRing({"r1", "r2", "r3", "r4", "r5"});
  for (const std::string& key : TestKeys(200)) {
    const std::vector<std::string> owners = ring.Owners(key, 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_EQ(std::set<std::string>(owners.begin(), owners.end()).size(), 3u);
    EXPECT_EQ(owners.front(), ring.PrimaryOwner(key));
  }
  // More owners than replicas: every replica, still distinct.
  EXPECT_EQ(ring.Owners("anything", 10).size(), 5u);
}

TEST(RingTest, MinimalMovementOnAdd) {
  const Ring before = MakeRing({"r1", "r2", "r3", "r4"});
  const Ring after = MakeRing({"r1", "r2", "r3", "r4", "r5"});
  const std::vector<std::string> keys = TestKeys(2000);
  int moved = 0;
  for (const std::string& key : keys) {
    const std::string now = after.PrimaryOwner(key);
    if (now != before.PrimaryOwner(key)) {
      ++moved;
      // Every move must be a capture by the new replica, never a reshuffle
      // between survivors.
      EXPECT_EQ(now, "r5") << key;
    }
  }
  // Expected share 1/5 = 400 of 2000; vnode granularity wobbles it, but an
  // order-of-magnitude excursion would mean the ring is rehashing.
  EXPECT_GT(moved, 2000 / 5 / 3);
  EXPECT_LT(moved, 2000 * 2 / 5);
}

TEST(RingTest, MinimalMovementOnRemove) {
  const Ring before = MakeRing({"r1", "r2", "r3", "r4", "r5"});
  const Ring after = MakeRing({"r1", "r2", "r4", "r5"});
  for (const std::string& key : TestKeys(2000)) {
    if (before.PrimaryOwner(key) != "r3") {
      // Only the removed replica's keys may move.
      EXPECT_EQ(after.PrimaryOwner(key), before.PrimaryOwner(key)) << key;
    } else {
      EXPECT_NE(after.PrimaryOwner(key), "r3") << key;
    }
  }
}

TEST(RingTest, FailoverOrderIsTheSuccessorAfterRemoval) {
  const std::vector<std::string> names = {"r1", "r2", "r3", "r4"};
  const Ring ring = MakeRing(names);
  // The replica that takes over when the primary leaves the ring is exactly
  // the second entry of Owners(key, 2) — what the routing client fails
  // over to.
  for (const std::string& key : TestKeys(300)) {
    const std::vector<std::string> owners = ring.Owners(key, 2);
    ASSERT_EQ(owners.size(), 2u);
    std::vector<std::string> survivors;
    for (const std::string& name : names) {
      if (name != owners[0]) survivors.push_back(name);
    }
    EXPECT_EQ(MakeRing(survivors).PrimaryOwner(key), owners[1]) << key;
  }
}

TEST(RingTest, RejectsDuplicateAndEmptyNames) {
  EXPECT_EQ(Ring::Make({""}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Ring::Make({"r1", ""}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Ring::Make({"r1", "r2", "r1"}).status().code(),
            StatusCode::kInvalidArgument);
  const Ring one = MakeRing({"r1"});
  EXPECT_EQ(one.Owners("key", 1), std::vector<std::string>{"r1"});
  // No replicas: an empty ring owns nothing.
  for (const Ring& empty : {Ring(), MakeRing({})}) {
    EXPECT_EQ(empty.size(), 0);
    EXPECT_TRUE(empty.Owners("key", 1).empty());
    EXPECT_EQ(empty.PrimaryOwner("key"), "");
  }
}

TEST(RingTest, BalanceIsReasonable) {
  const Ring ring = MakeRing({"r1", "r2", "r3", "r4"});
  std::map<std::string, int> load;
  const int kKeys = 4000;
  for (const std::string& key : TestKeys(kKeys)) {
    ++load[ring.PrimaryOwner(key)];
  }
  for (const auto& [name, n] : load) {
    // Fair share is 1000; 64 vnodes keeps every replica within ~2x.
    EXPECT_GT(n, kKeys / 4 / 2) << name;
    EXPECT_LT(n, kKeys / 4 * 2) << name;
  }
}

// ---------------------------------------------------------------------------
// Encoded histogram merge (the STATS-merge transport)
// ---------------------------------------------------------------------------

TEST(EncodedHistogramTest, EncodeMergeMatchesDirectMerge) {
  LatencyHistogram a, b, direct;
  for (uint64_t v : {3u, 17u, 170u, 9000u, 1u << 20}) {
    a.Record(v);
    direct.Record(v);
  }
  for (uint64_t v : {5u, 17u, 300u, 123456u}) {
    b.Record(v);
    direct.Record(v);
  }
  LatencyHistogram merged;
  ASSERT_TRUE(merged.MergeEncoded(a.Encode()));
  ASSERT_TRUE(merged.MergeEncoded(b.Encode()));
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.mean(), direct.mean());
  EXPECT_EQ(merged.max(), direct.max());
  EXPECT_EQ(merged.p50(), direct.p50());
  EXPECT_EQ(merged.p99(), direct.p99());
  EXPECT_EQ(merged.Encode(), direct.Encode());
}

TEST(EncodedHistogramTest, RejectsMalformedTokens) {
  LatencyHistogram h;
  EXPECT_FALSE(h.MergeEncoded(""));
  EXPECT_FALSE(h.MergeEncoded("v2,1,2,3"));
  EXPECT_FALSE(h.MergeEncoded("v1,1,2"));
  EXPECT_FALSE(h.MergeEncoded("v1,1,2,x"));
  EXPECT_FALSE(h.MergeEncoded("v1,1,2,3,99999=4"));  // bucket out of range
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.MergeEncoded("v1,0,0,0"));  // empty histogram is valid
  EXPECT_EQ(h.count(), 0u);
}

// ---------------------------------------------------------------------------
// Merged STATS document
// ---------------------------------------------------------------------------

TEST(ClusterStatsTest, JsonMatchesTheGoldenDocument) {
  // One replica answered and one is down: the merged "requests" equal the
  // responder's, and its own STATS document is embedded verbatim.
  serve::StatsSnapshot r1;
  r1.uptime_s = 1.0;
  LatencyHistogram latency;
  latency.Record(1500);
  r1.requests[serve::Op::kClean].count = 1;
  r1.requests[serve::Op::kClean].hist = latency.Encode();
  ClusterStats stats;
  stats.requests[serve::Op::kClean].Merge(r1.requests[serve::Op::kClean]);
  stats.replicas.push_back({"r1", Health::kHealthy, r1});
  stats.replicas.push_back({"r2", Health::kDown, std::nullopt});
  const std::string expected = R"json({
  "cluster": {"replicas": 2, "responding": 1},
  "requests": {
    "PING": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "CLEAN": {"count": 1, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 1500, "p50": 1500, "p95": 1500, "p99": 1500, "max": 1500}, "hist": "v1,1,1500,1500,67=1"},
    "DELTA": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "STATS": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "RELOAD": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "CLOSE_SESSION": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "CANCEL": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"}
  },
  "replicas": [
    {"name": "r1", "health": "healthy", "responding": true, "stats": {
  "uptime_s": 1.000000,
  "connections": {"live": 0, "accepted": 0},
  "sessions": {"live": 0, "opened": 0},
  "protocol_errors": 0,
  "overload": {"rejected": 0, "cancelled": 0, "deadline_exceeded": 0},
  "requests": {
    "PING": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "CLEAN": {"count": 1, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 1500, "p50": 1500, "p95": 1500, "p99": 1500, "max": 1500}, "hist": "v1,1,1500,1500,67=1"},
    "DELTA": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "STATS": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "RELOAD": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "CLOSE_SESSION": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"},
    "CANCEL": {"count": 0, "errors": 0, "rejected": 0, "cancelled": 0, "deadline_exceeded": 0, "latency_us": {"mean": 0, "p50": 0, "p95": 0, "p99": 0, "max": 0}, "hist": "v1,0,0,0"}
  },
  "rulesets": [
  ],
  "engine_memory": {"string_pool": {"interned": 0, "chunks": 0, "string_bytes": 0}, "memo": {"entries": 0, "bytes": 0}, "snapshot_warmed_engines": 0},
  "string_pool": {"interned": 0, "remaining": 0, "string_bytes": 0}
}},
    {"name": "r2", "health": "down", "responding": false, "stats": null}
  ]
}
)json";
  EXPECT_EQ(ClusterStatsJson(stats), expected);
}

TEST(ClusterStatsTest, ReplicaNamesAreEscaped) {
  // The spec parser accepts any whitespace-free word as a replica name.
  ClusterStats stats;
  stats.replicas.push_back({"r\"1", Health::kSuspect, std::nullopt});
  stats.replicas.push_back({"back\\slash", Health::kDown, std::nullopt});
  const std::string json = ClusterStatsJson(stats);
  EXPECT_NE(json.find("\"name\": \"r\\\"1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"back\\\\slash\""), std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

TEST(MembershipTest, HysteresisWalksHealthySuspectDown) {
  MembershipOptions options;
  options.suspect_after = 2;
  options.down_after = 4;
  options.healthy_after = 2;
  Membership membership(options);
  ASSERT_TRUE(membership.AddReplica("r1", "127.0.0.1:1").ok());

  EXPECT_EQ(membership.health("r1"), Health::kHealthy);
  membership.ReportFailure("r1");
  EXPECT_EQ(membership.health("r1"), Health::kHealthy);  // 1 < suspect_after
  membership.ReportFailure("r1");
  EXPECT_EQ(membership.health("r1"), Health::kSuspect);
  membership.ReportFailure("r1");
  EXPECT_EQ(membership.health("r1"), Health::kSuspect);
  membership.ReportFailure("r1");
  EXPECT_EQ(membership.health("r1"), Health::kDown);

  membership.ReportSuccess("r1");
  EXPECT_EQ(membership.health("r1"), Health::kDown);  // 1 < healthy_after
  membership.ReportSuccess("r1");
  EXPECT_EQ(membership.health("r1"), Health::kHealthy);

  // One more failure starts the walk again from zero.
  membership.ReportFailure("r1");
  EXPECT_EQ(membership.health("r1"), Health::kHealthy);
}

TEST(MembershipTest, ProbeFailsAgainstNothing) {
  MembershipOptions options;
  options.suspect_after = 1;
  options.down_after = 2;
  options.probe_timeout_ms = 200;
  Membership membership(options);
  // A port nothing listens on: connect refuses instantly on loopback.
  ASSERT_TRUE(membership.AddReplica("ghost", "127.0.0.1:1").ok());
  EXPECT_FALSE(membership.ProbeOne("ghost"));
  EXPECT_EQ(membership.health("ghost"), Health::kSuspect);
  EXPECT_FALSE(membership.ProbeOne("ghost"));
  EXPECT_EQ(membership.health("ghost"), Health::kDown);
  const auto status = membership.status("ghost");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->probes, 2u);
  EXPECT_EQ(status->failures, 2u);
  EXPECT_FALSE(membership.ProbeOne("no-such-replica"));
  EXPECT_EQ(membership.health("no-such-replica"), Health::kDown);
}

/// A peer on a unix socket that answers every request frame with one fixed
/// reply (`op`, `body`) under the request's tag, one connection at a time,
/// until destroyed: a daemon stand-in that can send malformed replies.
class FakePeer {
 public:
  FakePeer(serve::Op op, std::string body)
      : op_(op), body_(std::move(body)) {
    static int next = 0;
    path_ = "/tmp/uc_fake_peer_" + std::to_string(::getpid()) + "_" +
            std::to_string(next++) + ".sock";
    auto fd = serve::ListenUnix(path_);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    fd_ = fd.ok() ? *fd : -1;
    thread_ = std::thread([this] { Serve(); });
  }
  FakePeer(const FakePeer&) = delete;
  FakePeer& operator=(const FakePeer&) = delete;
  ~FakePeer() {
    stop_ = true;
    thread_.join();
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }

  std::string address() const { return "unix:" + path_; }

 private:
  void Serve() {
    while (!stop_ && fd_ >= 0) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) continue;
      serve::FrameChannel channel(conn);  // owns + closes the fd
      for (;;) {
        Result<serve::Frame> frame = channel.ReadFrame();
        if (!frame.ok()) break;
        if (!channel.WriteFrame(frame->tag, op_, body_).ok()) break;
      }
    }
  }

  const serve::Op op_;
  const std::string body_;
  std::string path_;
  int fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A well-formed kPong body: echo, 1 in flight, 2 queued, one ruleset.
std::string GoodPong() {
  std::string body;
  serve::PutLp(&body, "unicleand?");
  serve::PutU32(&body, 1);
  serve::PutU32(&body, 2);
  serve::PutU32(&body, 1);
  serve::PutLp(&body, "hosp");
  serve::PutU64(&body, 42);
  return body;
}

TEST(ServeClientTest, PongAndErrorTrailersDecodeExactly) {
  const auto connect = [](const FakePeer& peer) {
    auto client = serve::Client::ConnectAddress(peer.address());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  };
  const std::string pong = GoodPong();
  {
    FakePeer peer(serve::Op::kPong, pong);
    serve::Client client = connect(peer);
    auto info = client.PingEx();
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->inflight, 1u);
    EXPECT_EQ(info->queued, 2u);
    ASSERT_EQ(info->rulesets.size(), 1u);
    EXPECT_EQ(info->rulesets[0].first, "hosp");
    EXPECT_EQ(info->rulesets[0].second, 42u);
  }
  // A pong of only the echo (a pre-cluster daemon's), one cut inside the
  // trailer, and one with a byte past its last field.
  std::string echo_only;
  serve::PutLp(&echo_only, "unicleand?");
  for (const std::string& bad :
       {echo_only, pong.substr(0, pong.size() - 1), pong + "x"}) {
    FakePeer peer(serve::Op::kPong, bad);
    serve::Client client = connect(peer);
    EXPECT_EQ(client.PingEx().status().code(), StatusCode::kCorruption)
        << bad.size() << " bytes";
    EXPECT_EQ(client.Ping().code(), StatusCode::kCorruption);
  }

  std::string error;
  serve::PutU8(&error, serve::WireErrorCode(Status::Unavailable("")));
  serve::PutLp(&error, "work queue full");
  serve::PutU32(&error, 250);
  {
    FakePeer peer(serve::Op::kError, error);
    serve::Client client = connect(peer);
    const Status status = client.Ping();
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    EXPECT_EQ(status.message(), "work queue full");
    EXPECT_EQ(client.last_retry_after_ms(), 250u);
  }
  // A kError without its retry-after trailer, one cut inside it, and one
  // with a byte past it.
  for (const std::string& bad : {error.substr(0, error.size() - 4),
                                 error.substr(0, error.size() - 1),
                                 error + "x"}) {
    FakePeer peer(serve::Op::kError, bad);
    serve::Client client = connect(peer);
    EXPECT_EQ(client.Ping().code(), StatusCode::kCorruption)
        << bad.size() << " bytes";
  }
}

TEST(MembershipTest, MalformedPongIsAFailedProbe) {
  FakePeer good(serve::Op::kPong, GoodPong());
  std::string truncated;
  serve::PutLp(&truncated, "unicleand?");
  serve::PutU32(&truncated, 0);
  FakePeer bad(serve::Op::kPong, truncated);
  MembershipOptions options;
  options.suspect_after = 1;
  options.down_after = 2;
  options.probe_timeout_ms = 2000;
  Membership membership(options);
  ASSERT_TRUE(membership.AddReplica("good", good.address()).ok());
  ASSERT_TRUE(membership.AddReplica("bad", bad.address()).ok());

  EXPECT_TRUE(membership.ProbeOne("good"));
  EXPECT_EQ(membership.health("good"), Health::kHealthy);
  const auto good_status = membership.status("good");
  ASSERT_TRUE(good_status.ok());
  ASSERT_EQ(good_status->rulesets.size(), 1u);
  EXPECT_EQ(good_status->rulesets[0].second, 42u);

  // The bad peer answers, but with a pong that does not decode: a failed
  // probe, not a healthy replica with no load and no rulesets.
  EXPECT_FALSE(membership.ProbeOne("bad"));
  EXPECT_EQ(membership.health("bad"), Health::kSuspect);
  const auto bad_status = membership.status("bad");
  ASSERT_TRUE(bad_status.ok());
  EXPECT_EQ(bad_status->failures, 1u);
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

TEST(SpecTest, ParsesAndComputesOwnership) {
  const std::string text =
      "# a three-replica cluster\n"
      "replication 2\n"
      "vnodes 32\n"
      "workers 3\n"
      "snapshot-dir /tmp/snaps\n"
      "replica r1 unix:/tmp/r1.sock\n"
      "replica r2 127.0.0.1:7701   # tcp works too\n"
      "replica r3 unix:/tmp/r3.sock\n"
      "ruleset hosp m.csv r.txt s.csv\n"
      "ruleset flights m2.csv r2.txt s2.csv\n";
  auto spec = ClusterSpec::Parse(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->replication, 2);
  EXPECT_EQ(spec->ring.vnodes_per_replica, 32);
  EXPECT_EQ(spec->workers, 3);
  EXPECT_EQ(spec->snapshot_dir, "/tmp/snaps");
  ASSERT_EQ(spec->replicas.size(), 3u);
  EXPECT_EQ(spec->replicas[1].address, "127.0.0.1:7701");
  ASSERT_EQ(spec->rulesets.size(), 2u);

  // Ownership agrees between the ring's owners and RulesetsOwnedBy.
  auto ring = spec->BuildRing();
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  EXPECT_EQ(ring->replicas(),
            (std::vector<std::string>{"r1", "r2", "r3"}));
  EXPECT_EQ(ring->options().vnodes_per_replica, 32);
  for (const RulesetSpec& rs : spec->rulesets) {
    const std::vector<std::string> owners =
        ring->Owners(rs.name, spec->replication);
    ASSERT_EQ(owners.size(), 2u);
    for (const std::string& owner : owners) {
      const std::vector<std::string> owned =
          spec->RulesetsOwnedBy(*ring, owner);
      EXPECT_NE(std::find(owned.begin(), owned.end(), rs.name), owned.end());
    }
  }
  EXPECT_TRUE(spec->FindReplica("r2").ok());
  EXPECT_FALSE(spec->FindReplica("r9").ok());
  EXPECT_TRUE(spec->FindRuleset("hosp").ok());
  EXPECT_FALSE(spec->FindRuleset("nope").ok());
}

TEST(SpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ClusterSpec::Parse("").ok());
  EXPECT_FALSE(ClusterSpec::Parse("replica r1 unix:/a\n").ok());  // no ruleset
  EXPECT_FALSE(ClusterSpec::Parse("ruleset h m r s\n").ok());     // no replica
  EXPECT_FALSE(
      ClusterSpec::Parse("bogus 1\nreplica r1 a\nruleset h m r s\n").ok());
  EXPECT_FALSE(ClusterSpec::Parse(
                   "replica r1 a\nreplica r1 b\nruleset h m r s\n")
                   .ok());
  EXPECT_FALSE(
      ClusterSpec::Parse("replication zero\nreplica r1 a\nruleset h m r s\n")
          .ok());
  // Replication clamps to the replica count instead of failing.
  auto clamped =
      ClusterSpec::Parse("replication 5\nreplica r1 a\nruleset h m r s\n");
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->replication, 1);
  // vnodes and workers are capped: a ring reserves replicas x vnodes
  // entries, and each daemon starts one thread per worker. A sign is not
  // part of an unsigned number.
  const std::string members = "replica r1 a\nruleset h m r s\n";
  for (const char* line :
       {"vnodes 0\n", "vnodes 65537\n", "vnodes 2147483647\n",
        "vnodes 4294967296\n", "workers 0\n", "workers 1025\n",
        "workers 2147483647\n", "seed -1\n", "seed +1\n", "vnodes +8\n"}) {
    const auto spec = ClusterSpec::Parse(line + members);
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << line;
  }
  auto at_caps = ClusterSpec::Parse("vnodes 65536\nworkers 1024\n" + members);
  ASSERT_TRUE(at_caps.ok()) << at_caps.status().ToString();
  EXPECT_EQ(at_caps->ring.vnodes_per_replica, kMaxVnodes);
  EXPECT_EQ(at_caps->workers, kMaxWorkers);
}

TEST(SpecTest, SeededMutationsParseOrFailCleanly) {
  // Seeded byte edits and number-token swaps of a valid spec. Parse returns
  // InvalidArgument or a spec within the caps, and an accepted spec builds
  // its ring and answers ownership queries consistently.
  const std::string valid =
      "replication 2\n"
      "vnodes 32\n"
      "seed 42\n"
      "workers 3\n"
      "replica r1 unix:/tmp/r1.sock\n"
      "replica r2 127.0.0.1:7701\n"
      "replica r3 unix:/tmp/r3.sock\n"
      "ruleset hosp m.csv r.txt s.csv\n"
      "ruleset flights m2.csv r2.txt s2.csv\n";
  const std::vector<std::string> numbers = {"0", "-1", "2147483647",
                                            "4294967296"};
  Rng rng(2027);
  int accepted = 0;
  int vnodes_refused = 0;
  int workers_refused = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string text = valid;
    for (size_t edits = 1 + rng.Index(3); edits > 0; --edits) {
      const size_t at = rng.Index(text.size());
      switch (rng.Index(4)) {
        case 0:
          text[at] = static_cast<char>(rng.Uniform(0, 255));
          break;
        case 1:
          text.erase(at, 1);
          break;
        case 2:
          text.insert(at, 1, static_cast<char>(rng.Uniform(0, 255)));
          break;
        default: {
          // Swap the digit run at or after `at` for a boundary number.
          const size_t begin = text.find_first_of("0123456789", at);
          if (begin == std::string::npos) break;
          const size_t end = text.find_first_not_of("0123456789", begin);
          text.replace(begin, end - begin, rng.Choice(numbers));
          break;
        }
      }
    }
    const auto spec = ClusterSpec::Parse(text);
    if (!spec.ok()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
      const std::string& why = spec.status().message();
      vnodes_refused += why.find("vnodes expects") != std::string::npos;
      workers_refused += why.find("workers expects") != std::string::npos;
      continue;
    }
    ++accepted;
    ASSERT_GE(spec->ring.vnodes_per_replica, 1) << text;
    ASSERT_LE(spec->ring.vnodes_per_replica, kMaxVnodes) << text;
    EXPECT_GE(spec->workers, 1) << text;
    EXPECT_LE(spec->workers, kMaxWorkers) << text;
    const auto ring = spec->BuildRing();
    ASSERT_TRUE(ring.ok()) << ring.status().ToString() << "\n" << text;
    EXPECT_EQ(ring->size(), static_cast<int>(spec->replicas.size())) << text;
    for (const RulesetSpec& rs : spec->rulesets) {
      const std::vector<std::string> owners =
          ring->Owners(rs.name, spec->replication);
      EXPECT_EQ(owners.size(), static_cast<size_t>(spec->replication))
          << text;
      for (const std::string& owner : owners) {
        const std::vector<std::string> owned =
            spec->RulesetsOwnedBy(*ring, owner);
        EXPECT_NE(std::find(owned.begin(), owned.end(), rs.name),
                  owned.end())
            << text;
      }
    }
  }
  // Mutants reached both outcomes, and both capped directives.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(vnodes_refused, 0);
  EXPECT_GT(workers_refused, 0);
}

// ---------------------------------------------------------------------------
// Routing over real daemons
// ---------------------------------------------------------------------------

/// A 3-replica, 2-ruleset in-process cluster over one generated HOSP
/// dataset, plus a single-engine reference journal. Each test builds its
/// own world when it mutates the fleet (killing a replica); read-only tests
/// share Get().
struct ClusterWorld {
  static constexpr int kReplicas = 3;
  static constexpr int kReplication = 2;

  std::string dir;
  std::string dirty_csv;
  std::vector<std::string> names;      // r1..r3
  std::vector<std::string> addresses;  // 127.0.0.1:port, index-aligned
  std::vector<std::unique_ptr<serve::Daemon>> daemons;
  Ring ring;
  std::vector<std::string> rulesets = {"hosp", "hosp_alt"};
  std::string reference_journal;

  static ClusterWorld* Get() {
    static ClusterWorld* world = [] {
      auto* w = new ClusterWorld();
      w->Init();
      return w;
    }();
    return world;
  }

  void Init() {
    char tmpl[] = "/tmp/uniclean_cluster_test.XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir = tmpl;

    gen::GeneratorConfig config;
    config.num_tuples = 100;
    config.master_size = 50;
    config.noise_rate = 0.08;
    config.dup_rate = 0.4;
    config.asserted_rate = 0.4;
    config.seed = 20260808;
    gen::Dataset ds = gen::GenerateHosp(config);

    const std::string dirty_path = dir + "/dirty.csv";
    ASSERT_TRUE(data::WriteCsvFile(dirty_path, ds.dirty).ok());
    ASSERT_TRUE(data::WriteCsvFile(dir + "/master.csv", ds.master).ok());
    std::ofstream rules(dir + "/rules.txt");
    rules << ds.rule_text;
    ASSERT_TRUE(rules.good());
    rules.close();
    std::ifstream in(dirty_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    dirty_csv = buf.str();

    for (int i = 1; i <= kReplicas; ++i) {
      names.push_back("r" + std::to_string(i));
    }
    auto built = Ring::Make(names);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ring = std::move(built).value();

    // Each replica serves exactly the rulesets the ring assigns it — the
    // same sharding unicleanctl spawn computes from a spec.
    for (const std::string& name : names) {
      std::vector<serve::RulesetConfig> configs;
      for (const std::string& ruleset : rulesets) {
        const std::vector<std::string> owners =
            ring.Owners(ruleset, kReplication);
        if (std::find(owners.begin(), owners.end(), name) == owners.end()) {
          continue;
        }
        serve::RulesetConfig cfg;
        cfg.name = ruleset;
        cfg.master_csv = dir + "/master.csv";
        cfg.rules_file = dir + "/rules.txt";
        cfg.schema_csv = dirty_path;
        configs.push_back(cfg);
      }
      if (configs.empty()) {
        // A ring-idle replica still boots (a daemon needs >=1 ruleset);
        // routing never dials a non-owner, so the config is inert.
        serve::RulesetConfig cfg;
        cfg.name = rulesets[0];
        cfg.master_csv = dir + "/master.csv";
        cfg.rules_file = dir + "/rules.txt";
        cfg.schema_csv = dirty_path;
        configs.push_back(cfg);
      }
      serve::DaemonOptions options;
      options.port = 0;
      options.n_workers = 2;
      options.chunk_size = 1024;
      auto daemon = std::make_unique<serve::Daemon>(options, configs);
      Status started = daemon->Start();
      ASSERT_TRUE(started.ok()) << started.ToString();
      addresses.push_back("127.0.0.1:" + std::to_string(daemon->port()));
      daemons.push_back(std::move(daemon));
    }

    // The single-daemon reference journal ("hosp" through one engine).
    auto schema = data::InferCsvSchema(dirty_path, "data");
    ASSERT_TRUE(schema.ok());
    serve::RulesetConfig defaults;  // same thresholds the daemons serve with
    auto engine = EngineBuilder()
                      .WithDataSchema(*schema)
                      .WithMasterCsv(dir + "/master.csv")
                      .WithRulesFile(dir + "/rules.txt")
                      .WithEta(defaults.eta)
                      .WithDelta1(defaults.delta1)
                      .WithDelta2(defaults.delta2)
                      .BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto relation =
        data::ReadCsvFile(dirty_path, (*engine)->rules().data_schema_ptr());
    ASSERT_TRUE(relation.ok());
    Session session = (*engine)->NewSession();
    auto result = session.Run(&*relation);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::ostringstream journal;
    ASSERT_TRUE(result->journal.WriteCsv(journal).ok());
    reference_journal = journal.str();
    ASSERT_FALSE(reference_journal.empty());
  }

  std::shared_ptr<Membership> MakeMembership(
      MembershipOptions options = {}) const {
    auto membership = std::make_shared<Membership>(options);
    for (size_t i = 0; i < names.size(); ++i) {
      EXPECT_TRUE(membership->AddReplica(names[i], addresses[i]).ok());
    }
    return membership;
  }

  std::unique_ptr<ClusterClient> MakeClient(
      std::shared_ptr<Membership> membership = nullptr) const {
    if (membership == nullptr) membership = MakeMembership();
    ClusterClientOptions options;
    options.replication = kReplication;
    options.retry.max_retries = 2;
    options.retry.jitter_seed = 42;
    return std::make_unique<ClusterClient>(ring, membership, options);
  }

  int IndexOf(const std::string& name) const {
    return static_cast<int>(std::find(names.begin(), names.end(), name) -
                            names.begin());
  }
};

TEST(ClusterRoutingTest, RoutedCleanJournalByteIdenticalToSingleDaemon) {
  ClusterWorld* w = ClusterWorld::Get();
  auto client = w->MakeClient();
  serve::CleanRequest request;
  request.ruleset = "hosp";
  request.data_csv = w->dirty_csv;
  auto reply = client->Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, w->reference_journal);
  EXPECT_GT(reply->total_fixes, 0u);
  EXPECT_EQ(client->failovers(), 0u);
  // The connection went to the ring's primary owner for "hosp".
  const std::vector<std::string> connected = client->ConnectedReplicas();
  ASSERT_EQ(connected.size(), 1u);
  EXPECT_EQ(connected[0], w->ring.PrimaryOwner("hosp"));
}

TEST(ClusterRoutingTest, EmptyRulesetIsRejected) {
  ClusterWorld* w = ClusterWorld::Get();
  auto client = w->MakeClient();
  serve::CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto reply = client->Clean(request);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusterRoutingTest, PingExReportsLoadAndFingerprints) {
  ClusterWorld* w = ClusterWorld::Get();
  auto client = serve::Client::ConnectAddress(w->addresses[0]);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto info = client.value().PingEx();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info->rulesets.empty());
  for (const auto& [name, fingerprint] : info->rulesets) {
    EXPECT_TRUE(name == "hosp" || name == "hosp_alt") << name;
    EXPECT_NE(fingerprint, 0u);
  }
}

TEST(ClusterRoutingTest, MembershipProbesRealDaemons) {
  ClusterWorld* w = ClusterWorld::Get();
  auto membership = w->MakeMembership();
  EXPECT_EQ(membership->ProbeAll(), ClusterWorld::kReplicas);
  for (const ReplicaStatus& status : membership->Snapshot()) {
    EXPECT_EQ(status.health, Health::kHealthy) << status.name;
    EXPECT_FALSE(status.rulesets.empty()) << status.name;
  }
}

TEST(ClusterRoutingTest, BackgroundProberConvergesAndStops) {
  ClusterWorld* w = ClusterWorld::Get();
  MembershipOptions options;
  options.probe_interval_ms = 20;
  auto membership = w->MakeMembership(options);
  membership->Start();
  membership->Start();  // idempotent
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool probed = false;
  while (std::chrono::steady_clock::now() < deadline && !probed) {
    probed = true;
    for (const ReplicaStatus& status : membership->Snapshot()) {
      if (status.probes == 0) probed = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(probed);
  membership->Stop();
  membership->Stop();  // idempotent
}

TEST(ClusterRoutingTest, MergedStatsSumPerReplicaCounters) {
  ClusterWorld* w = ClusterWorld::Get();
  auto client = w->MakeClient();
  serve::CleanRequest request;
  request.ruleset = "hosp";
  request.data_csv = w->dirty_csv;
  for (int i = 0; i < 3; ++i) {
    auto reply = client->Clean(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  request.ruleset = "hosp_alt";
  ASSERT_TRUE(client->Clean(request).ok());

  const ClusterStats merged = client->Stats();

  // Daemon::Stats() reads the metrics in-process — no wire STATS, so
  // collecting the per-replica truth does not perturb any counter.
  serve::OpStats expect;
  for (const auto& daemon : w->daemons) {
    expect.Merge(daemon->Stats().requests[serve::Op::kClean]);
  }
  ASSERT_GE(expect.count, 4u);

  const serve::OpStats& clean = merged.requests[serve::Op::kClean];
  EXPECT_EQ(clean.count, expect.count);
  EXPECT_EQ(clean.errors, expect.errors);
  EXPECT_EQ(clean.hist, expect.hist);
  // The cluster envelope reports the fleet, and the merge is the sum of
  // the per-replica snapshots it carries.
  ASSERT_EQ(merged.replicas.size(), 3u);
  uint64_t replica_cleans = 0;
  for (const ReplicaStats& replica : merged.replicas) {
    ASSERT_TRUE(replica.stats.has_value()) << replica.name;
    replica_cleans += replica.stats->requests[serve::Op::kClean].count;
  }
  EXPECT_EQ(replica_cleans, clean.count);
}

TEST(ClusterRoutingTest, RollingReloadKeepsServing) {
  ClusterWorld* w = ClusterWorld::Get();
  auto client = w->MakeClient();
  serve::CleanRequest request;
  request.ruleset = "hosp";
  request.data_csv = w->dirty_csv;
  // Reload each owner in turn (what `unicleanctl rolling-reload` does) and
  // prove routed cleans stay byte-identical throughout.
  for (const std::string& owner :
       w->ring.Owners("hosp", ClusterWorld::kReplication)) {
    auto direct =
        serve::Client::ConnectAddress(w->addresses[w->IndexOf(owner)]);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto report = direct.value().Reload("hosp");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    auto reply = client->Clean(request);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->journal_csv, w->reference_journal);
  }
}

TEST(ClusterRoutingTest, RetrySeedPinsTheBackoffSchedule) {
  serve::RetryPolicy policy;
  policy.max_retries = 5;
  policy.jitter_seed = 1234;
  serve::Client a, b;
  a.set_retry_policy(policy);
  b.set_retry_policy(policy);
  bool any_nonzero = false;
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_EQ(a.BackoffMs(attempt), b.BackoffMs(attempt)) << attempt;
    if (a.BackoffMs(attempt) > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  policy.jitter_seed = 5678;
  b.set_retry_policy(policy);
  bool any_difference = false;
  for (int attempt = 0; attempt < 5; ++attempt) {
    if (a.BackoffMs(attempt) != b.BackoffMs(attempt)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ClusterRoutingTest, UnixSocketParity) {
  ClusterWorld* w = ClusterWorld::Get();
  serve::RulesetConfig cfg;
  cfg.name = "hosp";
  cfg.master_csv = w->dir + "/master.csv";
  cfg.rules_file = w->dir + "/rules.txt";
  cfg.schema_csv = w->dir + "/dirty.csv";
  serve::DaemonOptions options;
  options.listen = "unix:" + w->dir + "/parity.sock";
  options.n_workers = 1;
  serve::Daemon daemon(options, {cfg});
  Status started = daemon.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_EQ(daemon.port(), 0);
  EXPECT_EQ(daemon.address(), options.listen);

  auto client = serve::Client::ConnectAddress(daemon.address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  serve::CleanRequest request;
  request.data_csv = w->dirty_csv;
  auto reply = client.value().Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  // The transport must not leak into the repair: byte-identical journal.
  EXPECT_EQ(reply->journal_csv, w->reference_journal);

  daemon.Shutdown();
  // The socket path is unlinked on shutdown.
  EXPECT_NE(::access((w->dir + "/parity.sock").c_str(), F_OK), 0);
}

// --- destructive tests: each builds a private fleet it may kill ------------

TEST(ClusterFailoverTest, CleanFailsOverWhenPrimaryDies) {
  ClusterWorld world;
  world.Init();
  if (::testing::Test::HasFatalFailure()) return;

  auto membership = world.MakeMembership();
  auto client = world.MakeClient(membership);
  serve::CleanRequest request;
  request.ruleset = "hosp";
  request.data_csv = world.dirty_csv;

  // Warm path: primary serves.
  auto reply = client->Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, world.reference_journal);
  EXPECT_EQ(client->failovers(), 0u);

  // Kill the primary owner mid-fleet. The next routed CLEAN must recover
  // client-transparently on the secondary with a byte-identical journal.
  const std::string primary = world.ring.PrimaryOwner("hosp");
  world.daemons[world.IndexOf(primary)]->Shutdown();

  reply = client->Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, world.reference_journal);
  EXPECT_GE(client->failovers(), 1u);
  EXPECT_EQ(membership->health(primary), Health::kSuspect);

  // The replica now serving is the ring's designated second owner.
  const std::vector<std::string> owners =
      world.ring.Owners("hosp", ClusterWorld::kReplication);
  ASSERT_EQ(owners.size(), 2u);
  const std::vector<std::string> connected = client->ConnectedReplicas();
  EXPECT_NE(std::find(connected.begin(), connected.end(), owners[1]),
            connected.end());

  // Once the prober marks the primary down, fresh routing goes straight to
  // the survivor without burning a failover.
  MembershipOptions probe_options;
  probe_options.suspect_after = 1;
  probe_options.down_after = 2;
  auto demoted = std::make_shared<Membership>(probe_options);
  for (size_t i = 0; i < world.names.size(); ++i) {
    ASSERT_TRUE(
        demoted->AddReplica(world.names[i], world.addresses[i]).ok());
  }
  demoted->ProbeAll();
  demoted->ProbeAll();
  EXPECT_EQ(demoted->health(primary), Health::kDown);
  auto fresh = world.MakeClient(demoted);
  const uint64_t before = fresh->failovers();
  reply = fresh->Clean(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->journal_csv, world.reference_journal);
  EXPECT_EQ(fresh->failovers(), before)
      << "down-ranked primary should not be dialled first";
}

TEST(ClusterFailoverTest, DeltaIsPinnedAndNeverFailsOver) {
  ClusterWorld world;
  world.Init();
  if (::testing::Test::HasFatalFailure()) return;

  auto client = world.MakeClient();
  serve::CleanRequest clean;
  clean.ruleset = "hosp";
  clean.data_csv = world.dirty_csv;
  clean.track = true;
  auto opened = client->Clean(clean);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_NE(opened->session_id, 0u);

  const std::string pinned = client->SessionReplica(opened->session_id);
  EXPECT_EQ(pinned, world.ring.PrimaryOwner("hosp"));

  // A DELTA against the live pinned replica works.
  serve::DeltaRequest delta;
  delta.session_id = opened->session_id;
  delta.delete_ids = {0};
  auto applied = client->Delta(delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // Kill the pinned replica: the DELTA must FAIL — not silently re-run on
  // the secondary, which never saw the tracked session's base state.
  world.daemons[world.IndexOf(pinned)]->Shutdown();
  const uint64_t failovers_before = client->failovers();
  auto after = client->Delta(delta);
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(after.status().ToString().find("re-CLEAN"), std::string::npos)
      << after.status().ToString();
  EXPECT_EQ(client->failovers(), failovers_before);
  // The session died with its replica: the id no longer resolves.
  EXPECT_EQ(client->SessionReplica(opened->session_id), "");
  EXPECT_EQ(client->CloseSession(opened->session_id).code(),
            StatusCode::kNotFound);
  auto retried = client->Delta(delta);
  ASSERT_FALSE(retried.ok());
  EXPECT_EQ(retried.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cluster
}  // namespace uniclean
