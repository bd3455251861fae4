// Cluster spec: the one file that tells every party — unicleanctl, the
// routing client, the tests — the same story about a cluster: which
// replicas exist (name + address), which rulesets are served (name + the
// file inputs an engine is built from), and the ring parameters
// (replication factor, vnodes, seed). Because the ring is a pure function
// of the spec, anyone holding the file computes identical ownership — there
// is no coordination service to ask.
//
// Line-oriented text, '#' comments, blank lines ignored:
//
//   replication 2
//   vnodes 64                       # 1..kMaxVnodes
//   seed 8457659301994554734        # optional; default RingOptions::seed
//   snapshot-dir /var/lib/uniclean  # optional; shared warm-start snapshots
//   workers 2                       # optional; 1..kMaxWorkers per daemon
//   replica r1 unix:/tmp/uc-r1.sock
//   replica r2 127.0.0.1:7701
//   ruleset hosp master.csv rules.txt schema.csv
//
// Relative paths are relative to the process's working directory (the
// tools resolve spec-relative paths before building one).

#ifndef UNICLEAN_CLUSTER_SPEC_H_
#define UNICLEAN_CLUSTER_SPEC_H_

#include <string>
#include <vector>

#include "cluster/ring.h"
#include "common/result.h"

namespace uniclean {
namespace cluster {

/// Caps on the spec's size parameters. A spec is read from a file, and
/// each value sizes an allocation or a thread count: a ring reserves
/// replicas x vnodes 16-byte vnodes, and `unicleanctl spawn` passes
/// `workers` to every daemon it starts, which runs one thread per worker.
/// Parse refuses a larger value with InvalidArgument.
inline constexpr int kMaxVnodes = 65536;
inline constexpr int kMaxWorkers = 1024;

struct ReplicaSpec {
  std::string name;
  std::string address;  // "unix:PATH" or "host:port"
};

struct RulesetSpec {
  std::string name;
  std::string master_csv;
  std::string rules_file;
  std::string schema_csv;
};

struct ClusterSpec {
  int replication = 2;
  RingOptions ring;
  std::string snapshot_dir;
  int workers = 2;
  std::vector<ReplicaSpec> replicas;
  std::vector<RulesetSpec> rulesets;

  static Result<ClusterSpec> Parse(const std::string& text);
  static Result<ClusterSpec> Load(const std::string& path);

  /// The ring this spec describes: every replica, built once. Ownership of
  /// a ruleset is ring.Owners(name, replication). InvalidArgument only for
  /// an empty or repeated replica name, which Parse already refuses.
  Result<Ring> BuildRing() const;
  /// Rulesets whose owner list on `ring` (this spec's BuildRing()) includes
  /// `replica` — what that replica's daemon is configured to serve.
  std::vector<std::string> RulesetsOwnedBy(const Ring& ring,
                                           const std::string& replica) const;
  /// NotFound when the name is absent.
  Result<ReplicaSpec> FindReplica(const std::string& name) const;
  Result<RulesetSpec> FindRuleset(const std::string& name) const;
};

}  // namespace cluster
}  // namespace uniclean

#endif  // UNICLEAN_CLUSTER_SPEC_H_
