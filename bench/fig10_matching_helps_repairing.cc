// Figure 10 (Exp-1, "matching helps repairing"): repair F-measure of
//   Uni       — UniClean with CFDs + MDs (all three phases),
//   Uni(CFD)  — UniClean with CFDs only,
//   quaid     — the heuristic CFD-only repairing baseline,
// on HOSP (10a) and DBLP (10b), with dup% = 40 and noi% in {2,4,6,8,10}.

#include <cstdio>

#include "baselines/quaid.h"
#include "bench_util.h"
#include "eval/metrics.h"
#include "gen/dataset.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

namespace {

void RunSeries(const char* figure, gen::Dataset (*generate)(
                                       const gen::GeneratorConfig&)) {
  std::printf("\n-- %s --\n", figure);
  std::printf("%8s %12s %12s %12s\n", "noi%", "Uni", "Uni(CFD)", "quaid");
  for (int noi = 2; noi <= 10; noi += 2) {
    gen::GeneratorConfig config;
    config.num_tuples = 1000 * bench::Scale();
    config.master_size = 300 * bench::Scale();
    config.noise_rate = noi / 100.0;
    config.dup_rate = 0.4;
    config.asserted_rate = 0.4;
    config.seed = 100 + static_cast<uint64_t>(noi);
    gen::Dataset ds = generate(config);

    data::Relation uni = ds.dirty.Clone();
    bench::CleanFresh(&uni, ds.master, ds.rules);
    double uni_f = eval::RepairAccuracy(ds.dirty, uni, ds.clean).F();

    // Uni(CFD): same pipeline, CFDs only.
    auto cfd_only = rules::RuleSet::Make(ds.rules.data_schema_ptr(),
                                         ds.rules.master_schema_ptr(),
                                         ds.rules.cfds(), {});
    data::Relation uni_cfd = ds.dirty.Clone();
    bench::CleanFresh(&uni_cfd, ds.master, cfd_only.value());
    double cfd_f = eval::RepairAccuracy(ds.dirty, uni_cfd, ds.clean).F();

    data::Relation quaid_out = ds.dirty.Clone();
    baselines::Quaid(&quaid_out, ds.rules);
    double quaid_f = eval::RepairAccuracy(ds.dirty, quaid_out, ds.clean).F();

    std::printf("%8d %12.3f %12.3f %12.3f\n", noi, uni_f, cfd_f, quaid_f);
  }
}

}  // namespace

int main() {
  bench::Header("Figure 10: matching helps repairing (Exp-1)",
                "Uni should dominate Uni(CFD), which dominates quaid; the "
                "gap widens with noise.");
  RunSeries("Fig 10(a) HOSP: F-measure of repairing", gen::GenerateHosp);
  RunSeries("Fig 10(b) DBLP: F-measure of repairing", gen::GenerateDblp);
  return 0;
}
