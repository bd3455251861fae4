#include "cluster/spec.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace uniclean {
namespace cluster {

namespace {

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string word;
  while (in >> word) {
    if (word[0] == '#') break;  // trailing comment
    words.push_back(word);
  }
  return words;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  // Digits only, up to the token's end: strtoull alone would also take a
  // sign (reading "-1" as 2^64 - 1) and stop at an embedded NUL.
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const uint64_t v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& s, int* out) {
  uint64_t v = 0;
  if (!ParseU64(s, &v) || v > 1u << 20) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

Result<ClusterSpec> ClusterSpec::Parse(const std::string& text) {
  ClusterSpec spec;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::vector<std::string> words = SplitWords(line);
    if (words.empty()) continue;
    const std::string& key = words[0];
    auto fail = [&](const std::string& why) -> Status {
      return Status::InvalidArgument("cluster spec line " +
                                     std::to_string(lineno) + ": " + why);
    };
    if (key == "replication") {
      if (words.size() != 2 || !ParseInt(words[1], &spec.replication) ||
          spec.replication < 1) {
        return fail("replication expects a positive integer");
      }
    } else if (key == "vnodes") {
      if (words.size() != 2 ||
          !ParseInt(words[1], &spec.ring.vnodes_per_replica) ||
          spec.ring.vnodes_per_replica < 1 ||
          spec.ring.vnodes_per_replica > kMaxVnodes) {
        return fail("vnodes expects an integer in [1, " +
                    std::to_string(kMaxVnodes) + "]");
      }
    } else if (key == "seed") {
      if (words.size() != 2 || !ParseU64(words[1], &spec.ring.seed)) {
        return fail("seed expects an unsigned integer");
      }
    } else if (key == "snapshot-dir") {
      if (words.size() != 2) return fail("snapshot-dir expects one path");
      spec.snapshot_dir = words[1];
    } else if (key == "workers") {
      if (words.size() != 2 || !ParseInt(words[1], &spec.workers) ||
          spec.workers < 1 || spec.workers > kMaxWorkers) {
        return fail("workers expects an integer in [1, " +
                    std::to_string(kMaxWorkers) + "]");
      }
    } else if (key == "replica") {
      if (words.size() != 3) return fail("replica expects NAME ADDRESS");
      for (const ReplicaSpec& r : spec.replicas) {
        if (r.name == words[1]) {
          return fail("duplicate replica '" + words[1] + "'");
        }
      }
      spec.replicas.push_back({words[1], words[2]});
    } else if (key == "ruleset") {
      if (words.size() != 5) {
        return fail("ruleset expects NAME MASTER RULES SCHEMA");
      }
      for (const RulesetSpec& r : spec.rulesets) {
        if (r.name == words[1]) {
          return fail("duplicate ruleset '" + words[1] + "'");
        }
      }
      spec.rulesets.push_back({words[1], words[2], words[3], words[4]});
    } else {
      return fail("unknown directive '" + key + "'");
    }
  }
  if (spec.replicas.empty()) {
    return Status::InvalidArgument("cluster spec: no replicas declared");
  }
  if (spec.rulesets.empty()) {
    return Status::InvalidArgument("cluster spec: no rulesets declared");
  }
  if (spec.replication > static_cast<int>(spec.replicas.size())) {
    spec.replication = static_cast<int>(spec.replicas.size());
  }
  return spec;
}

Result<ClusterSpec> ClusterSpec::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot read cluster spec '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str());
}

Ring ClusterSpec::BuildRing() const {
  Ring ring(this->ring);
  for (const ReplicaSpec& r : replicas) {
    // Names were deduplicated at parse time; AddReplica cannot fail here.
    (void)ring.AddReplica(r.name);
  }
  return ring;
}

std::vector<std::string> ClusterSpec::OwnersOf(
    const std::string& ruleset) const {
  return BuildRing().Owners(ruleset, replication);
}

std::vector<std::string> ClusterSpec::RulesetsOwnedBy(
    const std::string& replica) const {
  const Ring ring = BuildRing();
  std::vector<std::string> owned;
  for (const RulesetSpec& rs : rulesets) {
    const std::vector<std::string> owners =
        ring.Owners(rs.name, replication);
    if (std::find(owners.begin(), owners.end(), replica) != owners.end()) {
      owned.push_back(rs.name);
    }
  }
  return owned;
}

Result<ReplicaSpec> ClusterSpec::FindReplica(const std::string& name) const {
  for (const ReplicaSpec& r : replicas) {
    if (r.name == name) return r;
  }
  return Status::NotFound("cluster spec: unknown replica '" + name + "'");
}

Result<RulesetSpec> ClusterSpec::FindRuleset(const std::string& name) const {
  for (const RulesetSpec& r : rulesets) {
    if (r.name == name) return r;
  }
  return Status::NotFound("cluster spec: unknown ruleset '" + name + "'");
}

}  // namespace cluster
}  // namespace uniclean
