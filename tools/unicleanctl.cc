// unicleanctl: spawn, inspect and drive a local unicleand cluster from one
// spec file (src/cluster/spec.h). Every command builds the ring from the
// spec once, so ownership shown here is exactly what the routing client
// computes.
//
//   unicleanctl COMMAND SPEC [flags]
//
//   spawn SPEC --unicleand BIN [--state-dir D]
//       Start one unicleand per replica that owns at least one ruleset,
//       each serving only its owned rulesets, listening on the replica's
//       spec address, warm-starting from the spec's snapshot-dir. Pid files
//       land in the state dir (default: SPEC.state). Waits until every
//       spawned replica answers PING.
//   ring SPEC
//       Print the ownership table: each ruleset's owner list (primary
//       first), and each replica's owned rulesets.
//   status SPEC
//       Probe every replica once; print health, load and per-ruleset
//       engine fingerprints.
//   clean SPEC --ruleset NAME --data D.csv [--journal J.csv] [--out R.csv]
//       Route a CLEAN through the cluster client (with failover).
//   stats SPEC
//       Print the merged cluster STATS document.
//   rolling-reload SPEC [--ruleset NAME]
//       RELOAD replica-by-replica: each replica reloads and answers a
//       PING (fingerprints included) before the next one starts, so the
//       cluster never has two replicas rebuilding at once.
//   stop SPEC [--state-dir D]
//       SIGTERM every pid the state dir knows about and wait for exit.
//
// Exit codes: 0 success, 1 usage/spec error, 2 cluster unreachable,
// 3 command failed.

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/membership.h"
#include "cluster/ring.h"
#include "cluster/spec.h"
#include "serve/client.h"

using namespace uniclean;  // NOLINT

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s COMMAND SPEC [flags]\n"
      "  spawn SPEC --unicleand BIN [--state-dir D]   start the replicas\n"
      "  ring SPEC                                    print ownership\n"
      "  status SPEC                                  probe + print health\n"
      "  clean SPEC --ruleset NAME --data D.csv\n"
      "        [--journal J.csv] [--out R.csv]        routed CLEAN\n"
      "  stats SPEC                                   merged cluster stats\n"
      "  rolling-reload SPEC [--ruleset NAME]         reload one-by-one\n"
      "  stop SPEC [--state-dir D]                    SIGTERM the replicas\n",
      argv0);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "unicleanctl: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "unicleanctl: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return out.good();
}

std::shared_ptr<cluster::Membership> MakeMembership(
    const cluster::ClusterSpec& spec) {
  auto membership = std::make_shared<cluster::Membership>();
  for (const cluster::ReplicaSpec& r : spec.replicas) {
    (void)membership->AddReplica(r.name, r.address);
  }
  return membership;
}

// --- spawn -----------------------------------------------------------------

std::string PidFilePath(const std::string& state_dir,
                        const std::string& replica) {
  return state_dir + "/" + replica + ".pid";
}

int CmdSpawn(const cluster::ClusterSpec& spec, const cluster::Ring& ring,
             const std::string& unicleand, const std::string& state_dir) {
  if (unicleand.empty()) {
    std::fprintf(stderr, "unicleanctl spawn: --unicleand BIN is required\n");
    return 1;
  }
  if (::mkdir(state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "unicleanctl spawn: mkdir %s: %s\n",
                 state_dir.c_str(), std::strerror(errno));
    return 1;
  }
  std::vector<std::string> spawned;
  for (const cluster::ReplicaSpec& replica : spec.replicas) {
    const std::vector<std::string> owned =
        spec.RulesetsOwnedBy(ring, replica.name);
    if (owned.empty()) {
      // The ring assigned this replica nothing; routing never targets it,
      // so a daemon would only waste an engine build.
      std::fprintf(stderr, "unicleanctl: replica %s owns no ruleset, idle\n",
                   replica.name.c_str());
      continue;
    }
    std::vector<std::string> args;
    args.push_back(unicleand);
    args.push_back("--workers");
    args.push_back(std::to_string(spec.workers));
    if (replica.address.rfind("unix:", 0) == 0) {
      args.push_back("--listen");
      args.push_back(replica.address);
    } else {
      const size_t colon = replica.address.rfind(':');
      args.push_back("--host");
      args.push_back(replica.address.substr(0, colon));
      args.push_back("--port");
      args.push_back(replica.address.substr(colon + 1));
    }
    if (!spec.snapshot_dir.empty()) {
      args.push_back("--snapshot-dir");
      args.push_back(spec.snapshot_dir);
    }
    for (const std::string& name : owned) {
      const cluster::RulesetSpec rs = spec.FindRuleset(name).value();
      args.push_back("--ruleset");
      args.push_back(rs.name + ":" + rs.master_csv + ":" + rs.rules_file +
                     ":" + rs.schema_csv);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "unicleanctl spawn: fork: %s\n",
                   std::strerror(errno));
      return 3;
    }
    if (pid == 0) {
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      // Route the daemon's stderr into the state dir so spawn output stays
      // readable and crashes stay diagnosable.
      const std::string log = state_dir + "/" + replica.name + ".log";
      FILE* f = std::freopen(log.c_str(), "a", stderr);
      (void)f;
      ::execv(argv[0], argv.data());
      std::fprintf(stdout, "unicleanctl spawn: execv %s: %s\n",
                   argv[0], std::strerror(errno));
      _exit(127);
    }
    if (!WriteFile(PidFilePath(state_dir, replica.name),
                   std::to_string(pid) + "\n")) {
      return 3;
    }
    std::fprintf(stderr, "unicleanctl: spawned %s (pid %d) serving",
                 replica.name.c_str(), static_cast<int>(pid));
    for (const std::string& name : owned) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, " on %s\n", replica.address.c_str());
    spawned.push_back(replica.name);
  }
  // Readiness: every spawned replica must answer a PING. Engine builds
  // (cold) can take a while; snapshot-warmed starts are near-instant.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (const std::string& name : spawned) {
    const std::string address =
        spec.FindReplica(name).value().address;
    for (;;) {
      Result<serve::Client> client = serve::Client::ConnectAddress(address);
      if (client.ok() && client.value().Ping().ok()) break;
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "unicleanctl spawn: %s (%s) never came up\n",
                     name.c_str(), address.c_str());
        return 2;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "unicleanctl: %s is up\n", name.c_str());
  }
  return 0;
}

int CmdStop(const cluster::ClusterSpec& spec, const std::string& state_dir) {
  int failures = 0;
  for (const cluster::ReplicaSpec& replica : spec.replicas) {
    const std::string pid_file = PidFilePath(state_dir, replica.name);
    std::string text;
    {
      std::ifstream in(pid_file);
      if (!in) continue;  // never spawned (idle replica) or already stopped
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    }
    const pid_t pid = static_cast<pid_t>(std::strtol(text.c_str(), nullptr, 10));
    if (pid <= 0) continue;
    if (::kill(pid, SIGTERM) != 0 && errno != ESRCH) {
      std::fprintf(stderr, "unicleanctl stop: kill %d: %s\n",
                   static_cast<int>(pid), std::strerror(errno));
      ++failures;
      continue;
    }
    // The pids are children only when stop runs in the spawner's process;
    // from a fresh invocation waitpid fails with ECHILD and polling kill(0)
    // is the portable wait.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (::kill(pid, 0) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      int ignored = 0;
      (void)::waitpid(pid, &ignored, WNOHANG);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::remove(pid_file.c_str());
    std::fprintf(stderr, "unicleanctl: stopped %s (pid %d)\n",
                 replica.name.c_str(), static_cast<int>(pid));
  }
  return failures == 0 ? 0 : 3;
}

// --- inspection ------------------------------------------------------------

int CmdRing(const cluster::ClusterSpec& spec, const cluster::Ring& ring) {
  std::printf("ring: %d replica(s), %d vnode(s) each, replication %d\n",
              ring.size(), spec.ring.vnodes_per_replica, spec.replication);
  for (const cluster::RulesetSpec& rs : spec.rulesets) {
    const std::vector<std::string> owners =
        ring.Owners(rs.name, spec.replication);
    std::printf("  ruleset %-16s ->", rs.name.c_str());
    for (size_t i = 0; i < owners.size(); ++i) {
      std::printf(" %s%s", owners[i].c_str(), i == 0 ? " (primary)" : "");
    }
    std::printf("\n");
  }
  for (const cluster::ReplicaSpec& replica : spec.replicas) {
    const std::vector<std::string> owned =
        spec.RulesetsOwnedBy(ring, replica.name);
    std::printf("  replica %-16s %-28s serves %zu ruleset(s)",
                replica.name.c_str(), replica.address.c_str(), owned.size());
    for (const std::string& name : owned) std::printf(" %s", name.c_str());
    std::printf("\n");
  }
  return 0;
}

int CmdStatus(const cluster::ClusterSpec& spec) {
  auto membership = MakeMembership(spec);
  const int answered = membership->ProbeAll();
  for (const cluster::ReplicaStatus& status : membership->Snapshot()) {
    std::printf("%-16s %-28s %-8s", status.name.c_str(),
                status.address.c_str(),
                cluster::HealthName(status.health));
    if (status.health == cluster::Health::kHealthy) {
      std::printf(" inflight=%u queued=%u", status.inflight, status.queued);
      for (const auto& [name, fingerprint] : status.rulesets) {
        std::printf(" %s=%016llx", name.c_str(),
                    static_cast<unsigned long long>(fingerprint));
      }
    }
    std::printf("\n");
  }
  return answered == static_cast<int>(spec.replicas.size()) ? 0 : 2;
}

// --- routed commands -------------------------------------------------------

int CmdClean(const cluster::ClusterSpec& spec, const cluster::Ring& ring,
             const std::string& ruleset, const std::string& data_path,
             const std::string& journal_path, const std::string& out_path) {
  if (ruleset.empty() || data_path.empty()) {
    std::fprintf(stderr,
                 "unicleanctl clean: --ruleset and --data are required\n");
    return 1;
  }
  auto membership = MakeMembership(spec);
  membership->ProbeAll();
  cluster::ClusterClientOptions options;
  options.replication = spec.replication;
  options.retry.max_retries = 3;
  cluster::ClusterClient client(ring, membership, options);
  serve::CleanRequest request;
  request.ruleset = ruleset;
  request.want_data = !out_path.empty();
  if (!ReadFile(data_path, &request.data_csv)) return 1;
  Result<serve::CleanReply> reply = client.Clean(request);
  if (!reply.ok()) {
    std::fprintf(stderr, "unicleanctl clean: %s\n",
                 reply.status().ToString().c_str());
    return 3;
  }
  std::printf("cleaned: %u fixes (%s), %u journal entries, %llu failover(s)\n",
              reply->total_fixes, reply->phase_summary.c_str(),
              reply->journal_entries,
              static_cast<unsigned long long>(client.failovers()));
  if (!journal_path.empty() && !WriteFile(journal_path, reply->journal_csv)) {
    return 3;
  }
  if (!out_path.empty() && !WriteFile(out_path, reply->data_csv)) return 3;
  return 0;
}

int CmdStats(const cluster::ClusterSpec& spec, const cluster::Ring& ring) {
  auto membership = MakeMembership(spec);
  membership->ProbeAll();
  cluster::ClusterClient client(ring, membership, {});
  std::fputs(cluster::ClusterStatsJson(client.Stats()).c_str(), stdout);
  return 0;
}

int CmdRollingReload(const cluster::ClusterSpec& spec,
                     const cluster::Ring& ring, const std::string& ruleset) {
  // Replica-by-replica: reload one, verify it answers a PING with engine
  // fingerprints again, only then move on — the ring's other owners keep
  // serving each ruleset throughout.
  for (const cluster::ReplicaSpec& replica : spec.replicas) {
    const std::vector<std::string> owned =
        spec.RulesetsOwnedBy(ring, replica.name);
    if (owned.empty()) continue;
    // Reloading one ruleset only touches its owners; a RELOAD for a ruleset
    // a replica doesn't serve would just be refused NotFound.
    if (!ruleset.empty() &&
        std::find(owned.begin(), owned.end(), ruleset) == owned.end()) {
      continue;
    }
    Result<serve::Client> connected =
        serve::Client::ConnectAddress(replica.address);
    if (!connected.ok()) {
      std::fprintf(stderr, "unicleanctl rolling-reload: %s unreachable: %s\n",
                   replica.name.c_str(),
                   connected.status().ToString().c_str());
      return 2;
    }
    serve::Client client = std::move(connected).value();
    Result<std::string> report = client.Reload(ruleset);
    if (!report.ok()) {
      std::fprintf(stderr, "unicleanctl rolling-reload: %s failed: %s\n",
                   replica.name.c_str(), report.status().ToString().c_str());
      return 3;
    }
    Result<serve::PingInfo> pong = client.PingEx();
    if (!pong.ok()) {
      std::fprintf(stderr,
                   "unicleanctl rolling-reload: %s not serving after "
                   "reload: %s\n",
                   replica.name.c_str(), pong.status().ToString().c_str());
      return 3;
    }
    std::printf("reloaded %s: %s", replica.name.c_str(), report->c_str());
    for (const auto& [name, fingerprint] : pong->rulesets) {
      std::printf(" %s=%016llx", name.c_str(),
                  static_cast<unsigned long long>(fingerprint));
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    Usage(argv[0]);
    return 1;
  }
  const std::string command = argv[1];
  const std::string spec_path = argv[2];

  std::string unicleand_bin;
  std::string state_dir = spec_path + ".state";
  std::string ruleset;
  std::string data_path;
  std::string journal_path;
  std::string out_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--unicleand") {
      if ((v = next()) == nullptr) return 1;
      unicleand_bin = v;
    } else if (arg == "--state-dir") {
      if ((v = next()) == nullptr) return 1;
      state_dir = v;
    } else if (arg == "--ruleset") {
      if ((v = next()) == nullptr) return 1;
      ruleset = v;
    } else if (arg == "--data") {
      if ((v = next()) == nullptr) return 1;
      data_path = v;
    } else if (arg == "--journal") {
      if ((v = next()) == nullptr) return 1;
      journal_path = v;
    } else if (arg == "--out") {
      if ((v = next()) == nullptr) return 1;
      out_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage(argv[0]);
      return 1;
    }
  }

  Result<cluster::ClusterSpec> loaded = cluster::ClusterSpec::Load(spec_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "unicleanctl: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const cluster::ClusterSpec spec = std::move(loaded).value();
  Result<cluster::Ring> built = spec.BuildRing();
  if (!built.ok()) {
    std::fprintf(stderr, "unicleanctl: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const cluster::Ring ring = std::move(built).value();

  ::signal(SIGPIPE, SIG_IGN);

  if (command == "spawn") {
    return CmdSpawn(spec, ring, unicleand_bin, state_dir);
  }
  if (command == "ring") return CmdRing(spec, ring);
  if (command == "status") return CmdStatus(spec);
  if (command == "clean") {
    return CmdClean(spec, ring, ruleset, data_path, journal_path, out_path);
  }
  if (command == "stats") return CmdStats(spec, ring);
  if (command == "rolling-reload") {
    return CmdRollingReload(spec, ring, ruleset);
  }
  if (command == "stop") return CmdStop(spec, state_dir);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  Usage(argv[0]);
  return 1;
}
