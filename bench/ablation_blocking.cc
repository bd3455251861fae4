// Ablation (§5.2's claim): MD matching with the suffix-array blocking index
// vs brute-force scanning of the master relation. The paper reports that
// without blocking, a 20K-tuple run took more than 5 hours while the full
// pipeline with blocking ran in minutes; here we reproduce the shape — the
// speedup grows linearly with |Dm|.

#include <cstdio>

#include "bench_util.h"
#include "core/md_matcher.h"
#include "gen/dataset.h"

using namespace uniclean;  // NOLINT

int main() {
  bench::Header("Ablation: suffix-array blocking (§5.2)",
                "Match time per probe should stay near-flat with blocking "
                "and grow linearly without.");
  std::printf("%8s %16s %16s %10s\n", "|Dm|", "blocking (ms)",
              "brute force (ms)", "speedup");
  for (int dm_size : {250, 500, 1000, 2000, 4000}) {
    gen::GeneratorConfig config;
    config.num_tuples = 300;
    config.master_size = dm_size * bench::Scale();
    config.seed = 600 + static_cast<uint64_t>(dm_size);
    gen::Dataset ds = gen::GenerateHosp(config);
    // md3 is the similarity-only MD (suffix-array path).
    const rules::Md& md = ds.rules.mds().back();

    core::MdMatcherOptions with;
    core::MdMatcherOptions without;
    without.use_blocking = false;
    // Compare per-probe candidate-generation cost; the memo caches would
    // otherwise turn repeated (duplicated) probes into hash hits.
    with.use_memos = false;
    without.use_memos = false;

    // The index is built once per cleaning run; time the queries, which is
    // where the pipeline spends its MD effort (every tuple, every pass).
    core::MdMatcher fast(md, ds.master, with);
    core::MdMatcher brute(md, ds.master, without);
    double t_with = bench::Seconds([&] {
      int found = 0;
      for (data::TupleId t = 0; t < ds.dirty.size(); ++t) {
        found += fast.Matches(ds.dirty.tuple(t)).empty() ? 0 : 1;
      }
      if (found < 0) std::printf("impossible\n");
    });
    double t_without = bench::Seconds([&] {
      int found = 0;
      for (data::TupleId t = 0; t < ds.dirty.size(); ++t) {
        found += brute.Matches(ds.dirty.tuple(t)).empty() ? 0 : 1;
      }
      if (found < 0) std::printf("impossible\n");
    });
    std::printf("%8d %16.1f %16.1f %9.1fx\n", config.master_size,
                t_with * 1e3, t_without * 1e3, t_without / t_with);
  }
  return 0;
}
