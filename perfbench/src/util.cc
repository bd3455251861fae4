#include "util.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "data/csv.h"

namespace perfbench {

void RunResult::Mismatch(const std::string& what) {
  std::fprintf(stderr, "perfbench: correctness gate: %s\n", what.c_str());
  correct = false;
  ++failed;
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

long CurrentRssKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages_total = 0;
  long pages_resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) return 0;
  return pages_resident * (sysconf(_SC_PAGESIZE) / 1024);
}

RssSampler::RssSampler() {
  peak_kb_.store(CurrentRssKb());
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const long kb = CurrentRssKb();
      if (kb > peak_kb_.load()) peak_kb_.store(kb);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

RssSampler::~RssSampler() { StopPeakMb(); }

double RssSampler::StopPeakMb() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  const long kb = CurrentRssKb();
  if (kb > peak_kb_.load()) peak_kb_.store(kb);
  return static_cast<double>(peak_kb_.load()) / 1024.0;
}

std::string RelationCsv(const uniclean::data::Relation& relation) {
  std::ostringstream out;
  if (!uniclean::data::WriteCsv(out, relation).ok()) {
    Die("cannot render a relation as CSV");
  }
  return out.str();
}

std::string ConfidenceCsv(const uniclean::data::Relation& relation) {
  std::ostringstream out;
  if (!uniclean::data::WriteConfidenceCsv(out, relation).ok()) {
    Die("cannot render confidences as CSV");
  }
  return out.str();
}

uniclean::data::Relation Slice(const uniclean::data::Relation& relation,
                               int begin, int end) {
  uniclean::data::Relation out(relation.schema_ptr());
  for (int t = begin; t < end; ++t) out.AddTuple(relation.tuple(t));
  return out;
}

void WriteFileOrDie(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out) Die("cannot write " + path);
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace perfbench
