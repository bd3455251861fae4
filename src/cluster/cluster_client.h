// ClusterClient: ruleset-sharded routing over a fleet of unicleand
// replicas, layered on serve::Client. Each request's ruleset hashes through
// the consistent-hash ring (ring.h) to an ordered owner list of
// `replication` distinct replicas; the client walks that list — skipping
// ahead of replicas Membership marks down — until one serves the request.
//
// Failover contract (pinned by cluster_test):
//
//  * CLEAN fails over: on connect failure, transport error, or a
//    kUnavailable rejection that survives the per-replica RetryPolicy
//    budget, the client abandons the replica (reporting the failure to
//    Membership, dropping the cached connection) and retries the request on
//    the next owner. CLEAN is safe to re-send: a replica that died
//    mid-request took any partial session with its connection, and the
//    repair itself is deterministic — the re-run journal is byte-identical.
//    Semantic errors (InvalidArgument, a real NotFound, ...) surface
//    immediately: another replica would only say the same thing.
//
//  * DELTA never fails over. Tracked sessions are per-connection state on
//    the replica that opened them, so the cluster client pins each session
//    to that replica's cached connection and sends every DELTA there. If
//    the pinned replica (or its connection) dies, the DELTA fails with the
//    transport error and the session is forgotten — the caller re-CLEANs
//    with track to build a fresh session, exactly as with a single daemon
//    restart. Re-sending a DELTA elsewhere would double-apply edits against
//    an engine that never saw the original CLEAN.
//
//  * Session ids are cluster-minted. Daemon session ids are per-daemon
//    counters that collide across replicas, so a tracked CLEAN's reply
//    carries an id from this client's own space, mapped internally to
//    (replica, remote id).
//
//  * STATS fans out to every non-down replica and merges typed snapshots
//    (serve/stats.h): OpStats::Merge sums each opcode's counters and merges
//    its latency histograms bucket-wise, so the cluster p99 is exactly what
//    one daemon serving all the traffic would have reported.
//
// Like serve::Client, a ClusterClient is driven by one thread; the
// Membership it shares may be probed concurrently from its own thread.

#ifndef UNICLEAN_CLUSTER_CLUSTER_CLIENT_H_
#define UNICLEAN_CLUSTER_CLUSTER_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "cluster/ring.h"
#include "common/result.h"
#include "serve/client.h"
#include "serve/stats.h"

namespace uniclean {
namespace cluster {

struct ClusterClientOptions {
  /// Owners consulted per ruleset (the ring's R): primary + R-1 failovers.
  int replication = 2;
  /// Per-replica kUnavailable retry budget (serve::Client semantics);
  /// exhausting it triggers failover to the next owner.
  serve::RetryPolicy retry;
  /// Socket IO timeout on every replica connection (0 = block forever).
  int io_timeout_ms = 0;
  /// Default deadline stamped on requests whose own deadline_ms is 0.
  uint32_t default_deadline_ms = 0;
};

/// One replica's part of a fleet STATS.
struct ReplicaStats {
  std::string name;
  Health health = Health::kHealthy;
  /// The replica's snapshot; empty when it was down, unreachable or sent a
  /// reply this build cannot decode.
  std::optional<serve::StatsSnapshot> stats;
};

/// A fleet's STATS: per-opcode stats merged over the replicas that
/// answered, plus every replica's own snapshot in membership order.
struct ClusterStats {
  serve::RequestStats requests;
  std::vector<ReplicaStats> replicas;
};

/// The merged STATS document `unicleanctl stats` prints: a "cluster"
/// envelope, the merged "requests" and each replica's StatsJson().
std::string ClusterStatsJson(const ClusterStats& stats);

class ClusterClient {
 public:
  /// The ring is copied (it is a value type); membership is shared with
  /// whoever probes it.
  ClusterClient(Ring ring, std::shared_ptr<Membership> membership,
                ClusterClientOptions options = {});

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Routes by request.ruleset (must be non-empty — it is the shard key).
  /// With request.track, the reply's session_id is a cluster-level id for
  /// Delta()/CloseSession() on this client.
  Result<serve::CleanReply> Clean(const serve::CleanRequest& request);

  /// Sends to the replica the session is pinned to; never fails over.
  Result<serve::DeltaReply> Delta(const serve::DeltaRequest& request);

  Status CloseSession(uint64_t session_id);

  /// Fans STATS out to every non-down replica and merges the answers.
  ClusterStats Stats();

  const Ring& ring() const { return ring_; }
  Membership& membership() { return *membership_; }

  // --- test / metrics accessors -------------------------------------------
  /// Times a request abandoned one replica and moved to the next owner.
  uint64_t failovers() const { return failovers_; }
  /// The replica a cluster session is pinned to ("" = unknown id).
  std::string SessionReplica(uint64_t session_id) const;
  /// Replicas with a live cached connection.
  std::vector<std::string> ConnectedReplicas() const;

 private:
  /// Owner walk order for a key: ring owners, healthy before suspect
  /// before down (stable within a class, so ring order breaks ties).
  std::vector<std::string> RouteOrder(const std::string& key) const;
  /// Cached connection to `name`, dialling if needed.
  Result<serve::Client*> Conn(const std::string& name);
  /// Drops the cached connection and forgets every session pinned to it.
  void DropConn(const std::string& name);

  Ring ring_;
  std::shared_ptr<Membership> membership_;
  ClusterClientOptions options_;

  std::map<std::string, serve::Client> conns_;

  struct PinnedSession {
    std::string replica;
    uint64_t remote_id = 0;
  };
  std::map<uint64_t, PinnedSession> sessions_;
  uint64_t next_session_ = 1;
  uint64_t failovers_ = 0;
};

}  // namespace cluster
}  // namespace uniclean

#endif  // UNICLEAN_CLUSTER_CLUSTER_CLIENT_H_
