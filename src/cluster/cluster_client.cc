#include "cluster/cluster_client.h"

#include <algorithm>
#include <utility>

namespace uniclean {
namespace cluster {

namespace {

/// True for failures that indict the replica/connection rather than the
/// request: these are the (only) failover triggers. Transport failures from
/// serve/wire.cc carry their syscall in the message ("connect: ...",
/// "recv: ...", "send: ..."), and a vanished peer surfaces as NotFound
/// ("peer closed the connection") or Corruption ("... mid-frame") from the
/// frame layer — all distinct from the daemon's semantic kError replies,
/// which mean every replica would answer the same and must surface.
bool IsReplicaFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
      // Admission rejection that survived the per-replica retry budget:
      // this replica is overloaded, another owner may not be.
      return true;
    case StatusCode::kInternal:
      return status.message().find("connect:") != std::string::npos ||
             status.message().find("recv:") != std::string::npos ||
             status.message().find("send:") != std::string::npos;
    case StatusCode::kNotFound:
      return status.message().find("peer closed") != std::string::npos;
    case StatusCode::kCorruption:
      return status.message().find("mid-frame") != std::string::npos ||
             status.message().find("truncated") != std::string::npos;
    default:
      return false;
  }
}

int HealthRank(Health h) {
  switch (h) {
    case Health::kHealthy:
      return 0;
    case Health::kSuspect:
      return 1;
    case Health::kDown:
      return 2;
  }
  return 3;
}

}  // namespace

ClusterClient::ClusterClient(Ring ring, std::shared_ptr<Membership> membership,
                             ClusterClientOptions options)
    : ring_(std::move(ring)),
      membership_(std::move(membership)),
      options_(options) {
  if (options_.replication < 1) options_.replication = 1;
}

std::vector<std::string> ClusterClient::RouteOrder(
    const std::string& key) const {
  std::vector<std::string> owners = ring_.Owners(key, options_.replication);
  // Down replicas go last rather than being skipped: health data can be
  // stale, and when every owner looks down the request should still be
  // tried somewhere instead of failing without a connection attempt.
  std::stable_sort(owners.begin(), owners.end(),
                   [&](const std::string& a, const std::string& b) {
                     return HealthRank(membership_->health(a)) <
                            HealthRank(membership_->health(b));
                   });
  return owners;
}

Result<serve::Client*> ClusterClient::Conn(const std::string& name) {
  auto it = conns_.find(name);
  if (it != conns_.end()) return &it->second;
  UC_ASSIGN_OR_RETURN(std::string address, membership_->address(name));
  UC_ASSIGN_OR_RETURN(serve::Client client,
                      serve::Client::ConnectAddress(address));
  if (options_.io_timeout_ms > 0) {
    UC_RETURN_IF_ERROR(client.SetIoTimeoutMs(options_.io_timeout_ms));
  }
  client.set_retry_policy(options_.retry);
  if (options_.default_deadline_ms > 0) {
    client.set_default_deadline_ms(options_.default_deadline_ms);
  }
  return &conns_.emplace(name, std::move(client)).first->second;
}

void ClusterClient::DropConn(const std::string& name) {
  conns_.erase(name);
  // Sessions pinned to that connection died with it server-side; forget
  // them so a later Delta fails fast with a clear error.
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.replica == name) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<serve::CleanReply> ClusterClient::Clean(
    const serve::CleanRequest& request) {
  if (request.ruleset.empty()) {
    return Status::InvalidArgument(
        "cluster clean: ruleset name is the shard key and must be non-empty");
  }
  const std::vector<std::string> route = RouteOrder(request.ruleset);
  if (route.empty()) {
    return Status::FailedPrecondition("cluster clean: the ring is empty");
  }
  Status last = Status::Unavailable("no owner reachable for ruleset '" +
                                    request.ruleset + "'");
  for (size_t i = 0; i < route.size(); ++i) {
    const std::string& name = route[i];
    if (i > 0) ++failovers_;
    Result<serve::Client*> conn = Conn(name);
    if (!conn.ok()) {
      membership_->ReportFailure(name);
      last = conn.status();
      continue;
    }
    Result<serve::CleanReply> reply = conn.value()->Clean(request);
    if (reply.ok()) {
      membership_->ReportSuccess(name);
      if (request.track) {
        // Remap the per-daemon session id into this client's space and pin
        // it to the replica (and connection) that owns it.
        const uint64_t cluster_id = next_session_++;
        sessions_[cluster_id] = {name, reply.value().session_id};
        reply.value().session_id = cluster_id;
      }
      return reply;
    }
    if (!IsReplicaFailure(reply.status())) return reply;  // semantic: surface
    membership_->ReportFailure(name);
    DropConn(name);
    last = reply.status();
  }
  return last;
}

Result<serve::DeltaReply> ClusterClient::Delta(
    const serve::DeltaRequest& request) {
  auto it = sessions_.find(request.session_id);
  if (it == sessions_.end()) {
    return Status::NotFound(
        "cluster delta: unknown session " + std::to_string(request.session_id) +
        " (never opened, closed, or lost with its pinned replica — re-CLEAN "
        "with track to open a new one)");
  }
  const std::string replica = it->second.replica;
  serve::DeltaRequest remote = request;
  remote.session_id = it->second.remote_id;
  UC_ASSIGN_OR_RETURN(serve::Client * conn, Conn(replica));
  Result<serve::DeltaReply> reply = conn->Delta(remote);
  if (!reply.ok() && IsReplicaFailure(reply.status())) {
    // The pinned replica is gone and its session with it. No cross-replica
    // retry: no other engine saw this session's CLEAN, so re-sending the
    // delta would apply edits against the wrong base state.
    membership_->ReportFailure(replica);
    DropConn(replica);
    return Status::Unavailable(
        "cluster delta: session " + std::to_string(request.session_id) +
        " was pinned to replica '" + replica +
        "', which failed mid-request (" + reply.status().ToString() +
        "); the session is gone — re-CLEAN with track");
  }
  if (reply.ok()) membership_->ReportSuccess(replica);
  return reply;
}

Status ClusterClient::CloseSession(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("cluster close: unknown session " +
                            std::to_string(session_id));
  }
  const std::string replica = it->second.replica;
  const uint64_t remote_id = it->second.remote_id;
  sessions_.erase(it);
  UC_ASSIGN_OR_RETURN(serve::Client * conn, Conn(replica));
  Status status = conn->CloseSession(remote_id);
  if (!status.ok() && IsReplicaFailure(status)) {
    // The connection (and with it the session) is already gone server-side;
    // closing a dead session is not an error worth surfacing.
    DropConn(replica);
    return Status::OK();
  }
  return status;
}

std::string ClusterClient::SessionReplica(uint64_t session_id) const {
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? std::string() : it->second.replica;
}

std::vector<std::string> ClusterClient::ConnectedReplicas() const {
  std::vector<std::string> out;
  out.reserve(conns_.size());
  for (const auto& [name, conn] : conns_) out.push_back(name);
  return out;
}

// ---------------------------------------------------------------------------
// STATS fan-out + merge
// ---------------------------------------------------------------------------

ClusterStats ClusterClient::Stats() {
  ClusterStats merged;
  for (const ReplicaStatus& status : membership_->Snapshot()) {
    ReplicaStats replica;
    replica.name = status.name;
    replica.health = status.health;
    if (status.health != Health::kDown) {
      Result<serve::Client*> conn = Conn(status.name);
      if (!conn.ok()) {
        membership_->ReportFailure(status.name);
      } else if (Result<serve::StatsSnapshot> stats = conn.value()->Stats();
                 stats.ok()) {
        membership_->ReportSuccess(status.name);
        for (int i = 0; i < serve::kNumRequestOps; ++i) {
          merged.requests.ops[i].Merge(stats->requests.ops[i]);
        }
        replica.stats = std::move(stats).value();
      } else if (IsReplicaFailure(stats.status())) {
        membership_->ReportFailure(status.name);
        DropConn(status.name);
      }
    }
    merged.replicas.push_back(std::move(replica));
  }
  return merged;
}

std::string ClusterStatsJson(const ClusterStats& stats) {
  const auto responding =
      std::count_if(stats.replicas.begin(), stats.replicas.end(),
                    [](const ReplicaStats& r) { return r.stats.has_value(); });
  std::string out = "{\n";
  out += "  \"cluster\": {\"replicas\": " +
         std::to_string(stats.replicas.size()) +
         ", \"responding\": " + std::to_string(responding) + "},\n";
  serve::AppendRequestsJson(stats.requests, &out);
  out += "  \"replicas\": [";
  for (size_t i = 0; i < stats.replicas.size(); ++i) {
    const ReplicaStats& replica = stats.replicas[i];
    if (i > 0) out += ',';
    out += "\n    {\"name\": \"" + serve::JsonEscape(replica.name) +
           "\", \"health\": \"" + HealthName(replica.health) +
           "\", \"responding\": " + (replica.stats ? "true" : "false") +
           ", \"stats\": ";
    if (replica.stats) {
      // Embed the replica's document without its trailing newline.
      std::string doc = serve::StatsJson(*replica.stats);
      doc.pop_back();
      out += doc;
    } else {
      out += "null";
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace cluster
}  // namespace uniclean
