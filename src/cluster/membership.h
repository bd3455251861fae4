// Cluster membership: per-replica health state driven off the PING opcode.
//
// A Membership holds one entry per replica (name + connectable address) and
// classifies each as healthy / suspect / down with hysteresis: a replica
// leaves `healthy` after `suspect_after` consecutive probe failures, hits
// `down` after `down_after`, and returns to `healthy` only after
// `healthy_after` consecutive successes — so one dropped probe cannot flap
// the routing table, and one lucky pong cannot resurrect a flapping
// replica.
//
// Probes are serve::Client::PingEx round trips under an IO timeout: a
// single cheap opcode yields liveness, instantaneous load (in-flight +
// queued) and per-ruleset engine fingerprints (the rolling-reload
// verification signal). ProbeAll()/ProbeOne() probe synchronously on the
// caller's thread (unicleanctl probes once per command), and the routing
// client feeds request outcomes in through ReportSuccess/ReportFailure, so
// a replica that dies between probes is marked without waiting for the
// next probe.
//
// Thread-safe: all state is behind one mutex; probes themselves run
// unlocked (a slow replica must not block health reads).

#ifndef UNICLEAN_CLUSTER_MEMBERSHIP_H_
#define UNICLEAN_CLUSTER_MEMBERSHIP_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace uniclean {
namespace cluster {

enum class Health { kHealthy, kSuspect, kDown };

/// "healthy" / "suspect" / "down".
const char* HealthName(Health h);

struct MembershipOptions {
  /// Per-probe socket budget (connect + ping round trip).
  int probe_timeout_ms = 1000;
  /// Consecutive failures before healthy -> suspect.
  int suspect_after = 1;
  /// Consecutive failures before -> down.
  int down_after = 3;
  /// Consecutive successes before suspect/down -> healthy.
  int healthy_after = 1;
};

/// One replica's view, as of the last probe / report.
struct ReplicaStatus {
  std::string name;
  std::string address;  // "unix:PATH" or "host:port"
  Health health = Health::kHealthy;
  /// From the last successful probe's pong trailer.
  uint32_t inflight = 0;
  uint32_t queued = 0;
  std::vector<std::pair<std::string, uint64_t>> rulesets;
  uint64_t probes = 0;
  uint64_t failures = 0;
  int consecutive_failures = 0;
  int consecutive_successes = 0;
};

class Membership {
 public:
  explicit Membership(MembershipOptions options = {});

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  /// Registers a replica (initially healthy — optimistic, so a fresh router
  /// routes immediately and demotes on evidence). InvalidArgument on
  /// duplicate/empty name.
  Status AddReplica(const std::string& name, const std::string& address);

  Health health(const std::string& name) const;
  /// NotFound for unknown names.
  Result<ReplicaStatus> status(const std::string& name) const;
  /// Every replica's status, sorted by name.
  std::vector<ReplicaStatus> Snapshot() const;
  Result<std::string> address(const std::string& name) const;

  /// One synchronous probe of every replica, on the caller's thread.
  /// Returns the number of replicas that answered.
  int ProbeAll();
  /// One synchronous probe of one replica; true = it answered.
  bool ProbeOne(const std::string& name);

  /// Request-outcome feedback from the routing client: a transport failure
  /// counts like a failed probe, a served request like a successful one
  /// (without load/fingerprint data).
  void ReportFailure(const std::string& name);
  void ReportSuccess(const std::string& name);

  const MembershipOptions& options() const { return options_; }

 private:
  struct Entry;

  /// Applies one probe/report outcome to the hysteresis state machine.
  void Apply(Entry& entry, bool ok);

  struct Entry {
    ReplicaStatus status;
  };

  MembershipOptions options_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // sorted by name
};

}  // namespace cluster
}  // namespace uniclean

#endif  // UNICLEAN_CLUSTER_MEMBERSHIP_H_
