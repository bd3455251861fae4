// Shared helpers for the benchmark harness. Every bench prints the same
// rows/series the paper's figures plot. Default sizes are scaled down so
// the whole suite runs in minutes; set UNICLEAN_BENCH_SCALE=<n> to multiply
// the data sizes toward paper scale.

#ifndef UNICLEAN_BENCH_BENCH_UTIL_H_
#define UNICLEAN_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "data/relation.h"
#include "rules/ruleset.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace bench {

/// Data-size multiplier from the environment (default 1).
inline int Scale() {
  const char* s = std::getenv("UNICLEAN_BENCH_SCALE");
  if (s == nullptr) return 1;
  int v = std::atoi(s);
  return v >= 1 ? v : 1;
}

/// Wall-clock seconds of a callable.
template <typename F>
double Seconds(F&& f) {
  auto start = std::chrono::steady_clock::now();
  f();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

inline void Header(const char* figure, const char* claim) {
  std::printf("==== %s ====\n", figure);
  std::printf("# %s\n", claim);
}

/// Cleans `*d` in place the way the figures run UniClean (Fig. 2): a fresh
/// engine with §8's confidence threshold η = 1 and one session, so every
/// call pays the MD index build. cRepair always runs; `erepair` and
/// `hrepair` select the later phases. Exits on a configuration error.
inline CleanResult CleanFresh(data::Relation* d, const data::Relation& master,
                              const rules::RuleSet& rules, bool erepair = true,
                              bool hrepair = true) {
  auto engine = EngineBuilder()
                    .WithDataSchema(d->schema_ptr())
                    .WithMaster(&master)
                    .WithRules(&rules)
                    .WithEta(1.0)
                    .WithDefaultPhases(/*crepair=*/true, erepair, hrepair)
                    .BuildEngine();
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(2);
  }
  Session session = (*engine)->NewSession();
  Result<CleanResult> result = session.Run(d);
  if (!result.ok()) {
    std::fprintf(stderr, "clean failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

}  // namespace bench
}  // namespace uniclean

#endif  // UNICLEAN_BENCH_BENCH_UTIL_H_
