#include "trace.h"

#include <cstdio>

#include "util.h"

namespace perfbench {

int Tracer::Begin(const std::string& name, int parent, int64_t op) {
  if (!enabled_) return -1;
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double now = NowS();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = now;
}

int Tracer::Add(const std::string& name, int parent, int64_t op,
                double start_s, double end_s) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_s, end_s, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

std::map<int64_t, double> Tracer::MsByOp(const std::string& name) const {
  std::map<int64_t, double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (s.name == name) out[s.op] += s.ms();
  }
  return out;
}

std::vector<double> Tracer::ChildCoverage(const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, double> covered_ms;
  for (const Span& s : spans_) {
    if (s.parent >= 0 && spans_[static_cast<size_t>(s.parent)].name == root) {
      covered_ms[s.parent] += s.ms();
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != root || s.ms() <= 0.0) continue;
    out.push_back(covered_ms[static_cast<int>(i)] / s.ms());
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d, \"op\": %lld}%s\n",
                 i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                 static_cast<long long>(s.op),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
