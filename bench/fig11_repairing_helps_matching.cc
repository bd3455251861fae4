// Figure 11 (Exp-2, "repairing helps matching"): match accuracy of
//   Uni       — clean with UniClean, then match via the MDs,
//   SortN(MD) — sorted-neighborhood matching on the dirty data,
// on HOSP (11a) and DBLP (11b), dup% = 40, noi% in {2,4,6,8,10}. The paper
// plots "matched attributes (%)"; we report the match F-measure (x100),
// which carries the same signal.

#include <cstdio>

#include "baselines/sortn.h"
#include "bench_util.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

namespace {

void RunSeries(const char* figure, gen::Dataset (*generate)(
                                       const gen::GeneratorConfig&)) {
  std::printf("\n-- %s --\n", figure);
  std::printf("%8s %12s %12s\n", "noi%", "Uni", "SortN(MD)");
  for (int noi = 2; noi <= 10; noi += 2) {
    gen::GeneratorConfig config;
    config.num_tuples = 1000 * bench::Scale();
    config.master_size = 300 * bench::Scale();
    config.noise_rate = noi / 100.0;
    config.dup_rate = 0.4;
    config.asserted_rate = 0.4;
    // The paper's matching attributes are systematically dirty (that is
    // why matching needs repairing); concentrate noise on the MD premise
    // attributes accordingly.
    config.md_premise_noise_boost = 4.0;
    config.seed = 200 + static_cast<uint64_t>(noi);
    gen::Dataset ds = generate(config);

    baselines::SortNOptions sortn_opts;
    sortn_opts.window = 3;
    auto sortn = baselines::SortedNeighborhoodMatch(
        ds.dirty, ds.master, ds.rules.mds(), sortn_opts);
    double sortn_f =
        eval::MatchAccuracy(sortn, ds.true_matches).F() * 100.0;

    // Uni's matches are the (t, s) pairs whose MD premise held while the
    // cleaning rules were applied — matching and repairing interleaved.
    data::Relation cleaned = ds.dirty.Clone();
    CleanResult result = bench::CleanFresh(&cleaned, ds.master, ds.rules);
    double uni_f =
        eval::MatchAccuracy(result.AllMatches(), ds.true_matches).F() * 100.0;

    std::printf("%8d %12.1f %12.1f\n", noi, uni_f, sortn_f);
  }
}

}  // namespace

int main() {
  bench::Header("Figure 11: repairing helps matching (Exp-2)",
                "Uni should dominate SortN(MD) and degrade more slowly "
                "with noise.");
  RunSeries("Fig 11(a) HOSP: matched (%)", gen::GenerateHosp);
  RunSeries("Fig 11(b) DBLP: matched (%)", gen::GenerateDblp);
  return 0;
}
