#include "cluster/membership.h"

#include <algorithm>

#include "serve/client.h"

namespace uniclean {
namespace cluster {

const char* HealthName(Health h) {
  switch (h) {
    case Health::kHealthy:
      return "healthy";
    case Health::kSuspect:
      return "suspect";
    case Health::kDown:
      return "down";
  }
  return "unknown";
}

Membership::Membership(MembershipOptions options) : options_(options) {
  if (options_.suspect_after < 1) options_.suspect_after = 1;
  if (options_.down_after < options_.suspect_after) {
    options_.down_after = options_.suspect_after;
  }
  if (options_.healthy_after < 1) options_.healthy_after = 1;
}

Status Membership::AddReplica(const std::string& name,
                              const std::string& address) {
  if (name.empty()) {
    return Status::InvalidArgument("membership: replica name must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.status.name == name) {
      return Status::InvalidArgument("membership: duplicate replica '" + name +
                                     "'");
    }
  }
  Entry entry;
  entry.status.name = name;
  entry.status.address = address;
  entries_.push_back(std::move(entry));
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.status.name < b.status.name;
            });
  return Status::OK();
}

Health Membership::health(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.status.name == name) return e.status.health;
  }
  // An unknown replica is worse than a down one; routing skips it either
  // way.
  return Health::kDown;
}

Result<ReplicaStatus> Membership::status(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.status.name == name) return e.status;
  }
  return Status::NotFound("membership: unknown replica '" + name + "'");
}

std::vector<ReplicaStatus> Membership::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReplicaStatus> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.status);
  return out;
}

Result<std::string> Membership::address(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.status.name == name) return e.status.address;
  }
  return Status::NotFound("membership: unknown replica '" + name + "'");
}

void Membership::Apply(Entry& entry, bool ok) {
  ReplicaStatus& s = entry.status;
  if (ok) {
    s.consecutive_failures = 0;
    ++s.consecutive_successes;
    if (s.health != Health::kHealthy &&
        s.consecutive_successes >= options_.healthy_after) {
      s.health = Health::kHealthy;
    }
  } else {
    s.consecutive_successes = 0;
    ++s.consecutive_failures;
    ++s.failures;
    if (s.consecutive_failures >= options_.down_after) {
      s.health = Health::kDown;
    } else if (s.consecutive_failures >= options_.suspect_after) {
      s.health = Health::kSuspect;
    }
  }
}

bool Membership::ProbeOne(const std::string& name) {
  std::string address;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool found = false;
    for (Entry& e : entries_) {
      if (e.status.name == name) {
        address = e.status.address;
        ++e.status.probes;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  // Probe unlocked: a hung replica must stall only this probe, never a
  // health() read.
  serve::PingInfo info;
  bool ok = false;
  Result<serve::Client> client = serve::Client::ConnectAddress(address);
  if (client.ok()) {
    (void)client.value().SetIoTimeoutMs(options_.probe_timeout_ms);
    Result<serve::PingInfo> pong = client.value().PingEx();
    if (pong.ok()) {
      info = std::move(pong).value();
      ok = true;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.status.name != name) continue;
    Apply(e, ok);
    if (ok) {
      e.status.inflight = info.inflight;
      e.status.queued = info.queued;
      e.status.rulesets = std::move(info.rulesets);
    }
    break;
  }
  return ok;
}

int Membership::ProbeAll() {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(entries_.size());
    for (const Entry& e : entries_) names.push_back(e.status.name);
  }
  int answered = 0;
  for (const std::string& name : names) {
    if (ProbeOne(name)) ++answered;
  }
  return answered;
}

void Membership::ReportFailure(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.status.name == name) {
      Apply(e, false);
      return;
    }
  }
}

void Membership::ReportSuccess(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : entries_) {
    if (e.status.name == name) {
      Apply(e, true);
      return;
    }
  }
}

}  // namespace cluster
}  // namespace uniclean
