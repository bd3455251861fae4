// unicleand: the serving daemon. Holds one warm CleanEngine per configured
// ruleset and serves CLEAN / DELTA / STATS / RELOAD / PING over the framed
// TCP protocol of serve/wire.h (uniclean_client is the companion).
//
//   unicleand --master M.csv --rules R.txt --schema D.csv
//             [--name default] [--host 127.0.0.1] [--port 0]
//             [--listen unix:PATH] [--port-file P] [--workers 4]
//             [--eta F] [--delta1 N] [--delta2 F] [--memo-cap N]
//             [--phases c,e,h] [--no-warmup]
//             [--max-queue N] [--max-inflight-per-ruleset N]
//             [--request-timeout-ms N] [--drain-grace-ms N]
//             [--log-requests PATH] [--snapshot-dir DIR]
//             [--ruleset NAME:MASTER:RULES:SCHEMA]...
//
// --schema names a CSV whose header row declares the data schema requests
// are parsed against (the dirty data itself or a header-only file). With
// --port 0 the kernel picks an ephemeral port; --port-file writes the
// bound port once the daemon is listening, so scripts can wait for it.
// Additional rulesets come from repeatable --ruleset specs (thresholds
// shared with the flag values). SIGTERM/SIGINT trigger a graceful drain:
// in-flight and queued requests finish, then the per-opcode latency and
// memo hit-rate summary is printed and the daemon exits 0.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "serve/server.h"

using namespace uniclean;  // NOLINT

namespace {

// Self-pipe: the signal handler writes one byte; main() polls the read end.
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; a full pipe just means a wakeup is
  // already pending.
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

struct DaemonCli {
  serve::DaemonOptions options;
  serve::RulesetConfig base;  // filled from the simple flags
  std::vector<std::string> ruleset_specs;
  std::string port_file;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --master M.csv --rules R.txt --schema D.csv\n"
      "  [--name default]          ruleset name for the simple flags\n"
      "  [--host 127.0.0.1] [--port 0]   bind address (port 0 = ephemeral)\n"
      "  [--listen unix:PATH]      listen on an AF_UNIX socket instead of "
      "TCP\n"
      "  [--port-file P]           write the bound port (or unix address) "
      "here once listening\n"
      "  [--workers 4]             request worker threads\n"
      "  [--eta F] [--delta1 N] [--delta2 F]   thresholds (0.8 / 5 / 0.8)\n"
      "  [--memo-cap N]            cap resident entries per memo map\n"
      "  [--phases c,e,h]          subset of phases to run\n"
      "  [--no-warmup]             skip building match indexes at startup\n"
      "  [--max-queue N]           refuse requests beyond N queued "
      "(0 = unbounded)\n"
      "  [--max-inflight-per-ruleset N]   cap concurrent CLEANs + DELTAs "
      "per ruleset\n"
      "  [--request-timeout-ms N]  default per-request deadline "
      "(0 = none)\n"
      "  [--drain-grace-ms N]      shutdown drain budget before requests "
      "are cancelled\n"
      "  [--log-requests PATH]     append one JSON line per request\n"
      "  [--snapshot-dir DIR]      warm-start engines from DIR/<name>.ucsnap "
      "and keep the snapshots fresh\n"
      "  [--ruleset NAME:MASTER:RULES:SCHEMA]   additional rulesets "
      "(repeatable)\n",
      argv0);
}

bool ParseDouble(const char* flag, const char* v, double* out) {
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s expects a number, got '%s'\n", flag, v);
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseInt(const char* flag, const char* v, int* out) {
  errno = 0;
  char* end = nullptr;
  long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    std::fprintf(stderr, "%s expects an integer, got '%s'\n", flag, v);
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

bool ParsePhases(const char* v, serve::RulesetConfig* cfg) {
  cfg->run_crepair = cfg->run_erepair = cfg->run_hrepair = false;
  for (const char* p = v; *p != '\0'; ++p) {
    switch (*p) {
      case 'c':
        cfg->run_crepair = true;
        break;
      case 'e':
        cfg->run_erepair = true;
        break;
      case 'h':
        cfg->run_hrepair = true;
        break;
      case ',':
        break;
      default:
        std::fprintf(stderr, "--phases: unknown phase character '%c'\n", *p);
        return false;
    }
  }
  return true;
}

bool ParseRulesetSpec(const std::string& spec, const serve::RulesetConfig& base,
                      serve::RulesetConfig* out) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ':') {
      parts.push_back(spec.substr(start, i - start));
      start = i + 1;
    }
  }
  if (parts.size() != 4 || parts[0].empty()) {
    std::fprintf(stderr,
                 "--ruleset expects NAME:MASTER:RULES:SCHEMA, got '%s'\n",
                 spec.c_str());
    return false;
  }
  *out = base;  // inherit thresholds / phase set from the simple flags
  out->name = parts[0];
  out->master_csv = parts[1];
  out->rules_file = parts[2];
  out->schema_csv = parts[3];
  return true;
}

bool ParseArgs(int argc, char** argv, DaemonCli* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--master") {
      if ((v = next()) == nullptr) return false;
      cli->base.master_csv = v;
    } else if (arg == "--rules") {
      if ((v = next()) == nullptr) return false;
      cli->base.rules_file = v;
    } else if (arg == "--schema") {
      if ((v = next()) == nullptr) return false;
      cli->base.schema_csv = v;
    } else if (arg == "--name") {
      if ((v = next()) == nullptr) return false;
      cli->base.name = v;
    } else if (arg == "--host") {
      if ((v = next()) == nullptr) return false;
      cli->options.host = v;
    } else if (arg == "--port") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--port", v, &cli->options.port)) return false;
    } else if (arg == "--listen") {
      if ((v = next()) == nullptr) return false;
      cli->options.listen = v;
    } else if (arg == "--port-file") {
      if ((v = next()) == nullptr) return false;
      cli->port_file = v;
    } else if (arg == "--workers") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--workers", v, &cli->options.n_workers)) return false;
    } else if (arg == "--eta") {
      if ((v = next()) == nullptr) return false;
      if (!ParseDouble("--eta", v, &cli->base.eta)) return false;
    } else if (arg == "--delta1") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--delta1", v, &cli->base.delta1)) return false;
    } else if (arg == "--delta2") {
      if ((v = next()) == nullptr) return false;
      if (!ParseDouble("--delta2", v, &cli->base.delta2)) return false;
    } else if (arg == "--memo-cap") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--memo-cap", v, &cli->base.memo_cap)) return false;
    } else if (arg == "--phases") {
      if ((v = next()) == nullptr) return false;
      if (!ParsePhases(v, &cli->base)) return false;
    } else if (arg == "--no-warmup") {
      cli->options.warmup = false;
    } else if (arg == "--max-queue") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--max-queue", v, &cli->options.max_queue)) return false;
    } else if (arg == "--max-inflight-per-ruleset") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--max-inflight-per-ruleset", v,
                    &cli->options.max_inflight_per_ruleset)) {
        return false;
      }
    } else if (arg == "--request-timeout-ms") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--request-timeout-ms", v,
                    &cli->options.request_timeout_ms)) {
        return false;
      }
    } else if (arg == "--drain-grace-ms") {
      if ((v = next()) == nullptr) return false;
      if (!ParseInt("--drain-grace-ms", v, &cli->options.drain_grace_ms)) {
        return false;
      }
    } else if (arg == "--log-requests") {
      if ((v = next()) == nullptr) return false;
      cli->options.request_log_path = v;
    } else if (arg == "--snapshot-dir") {
      if ((v = next()) == nullptr) return false;
      cli->options.snapshot_dir = v;
    } else if (arg == "--ruleset") {
      if ((v = next()) == nullptr) return false;
      cli->ruleset_specs.push_back(v);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonCli cli;
  if (!ParseArgs(argc, argv, &cli)) {
    Usage(argv[0]);
    return 1;
  }

  std::vector<serve::RulesetConfig> rulesets;
  if (!cli.base.master_csv.empty() || !cli.base.rules_file.empty()) {
    rulesets.push_back(cli.base);
  }
  for (const std::string& spec : cli.ruleset_specs) {
    serve::RulesetConfig cfg;
    if (!ParseRulesetSpec(spec, cli.base, &cfg)) {
      Usage(argv[0]);
      return 1;
    }
    rulesets.push_back(std::move(cfg));
  }
  if (rulesets.empty()) {
    std::fprintf(stderr, "no ruleset configured\n");
    Usage(argv[0]);
    return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 2;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  serve::Daemon daemon(cli.options, std::move(rulesets));
  Status status = daemon.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "unicleand: start failed: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "unicleand: listening on %s (%d workers)\n",
               daemon.address().c_str(), cli.options.n_workers);
  if (!cli.port_file.empty()) {
    // Write-then-rename so a watcher never reads a half-written port.
    const std::string tmp = cli.port_file + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen(port-file)");
      return 2;
    }
    // TCP mode writes the bound port (the historical contract scripts
    // parse); unix mode writes the connectable address.
    if (cli.options.listen.empty()) {
      std::fprintf(f, "%d\n", daemon.port());
    } else {
      std::fprintf(f, "%s\n", daemon.address().c_str());
    }
    std::fclose(f);
    if (std::rename(tmp.c_str(), cli.port_file.c_str()) != 0) {
      std::perror("rename(port-file)");
      return 2;
    }
  }

  // Block until SIGTERM/SIGINT.
  for (;;) {
    pollfd pfd{};
    pfd.fd = g_signal_pipe[0];
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, -1);
    if (r > 0) break;
    if (r < 0 && errno != EINTR) break;
  }

  std::fprintf(stderr, "unicleand: draining...\n");
  daemon.Shutdown();
  std::fputs(daemon.SummaryText().c_str(), stderr);
  return 0;
}
