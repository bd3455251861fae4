// In-memory span recorder for the traced runs. The benchmark wraps each call
// it makes into a layer's public functions in a span (name, start, end,
// parent span, op id); spans stay in memory while the window runs and are
// written out as JSON when the run ends. A disabled tracer records nothing,
// so untraced runs pay one branch per call site.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Index of the parent span, -1 for a root.
  int parent = -1;
  /// The operation (job, request) the span belongs to.
  int64_t op = 0;

  double ms() const { return (end_s - start_s) * 1000.0; }
};

/// Thread-safe: client threads of the serving workloads share one tracer.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span now; returns its id, or -1 when disabled.
  int Begin(const std::string& name, int parent, int64_t op);
  /// Closes span `id` now (no-op for -1).
  void End(int id);
  /// Records a finished span with explicit times; returns its id.
  int Add(const std::string& name, int parent, int64_t op, double start_s,
          double end_s);

  /// Per op, the summed duration (ms) of spans called `name`.
  std::map<int64_t, double> MsByOp(const std::string& name) const;

  /// Per root span called `root`, the share of its duration covered by its
  /// direct children (children are sequential in this benchmark).
  std::vector<double> ChildCoverage(const std::string& root) const;

  /// Writes all spans as a JSON array. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent, int64_t op)
      : tracer_(tracer), id_(tracer.Begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
