// End-to-end file pipeline: write a dirty dataset, its master data and its
// per-cell confidences to CSV, then clean files-in / files-out with one
// engine and one session (see serving_engine.cpp for one engine serving
// many runs). Schemas are inferred from the CSV headers, the rule program is
// parsed against them, and the confidence CSV is validated cell-by-cell.

#include <cstdio>
#include <string>

#include "gen/dataset.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

int main() {
  const std::string dir = "/tmp/uniclean_example";
  (void)std::system(("mkdir -p " + dir).c_str());

  gen::GeneratorConfig config;
  config.num_tuples = 500;
  config.master_size = 150;
  config.seed = 99;
  gen::Dataset ds = gen::GenerateHosp(config);

  // Export the inputs (a deployment would receive these from upstream).
  Status s = data::WriteCsvFile(dir + "/dirty.csv", ds.dirty);
  if (s.ok()) s = data::WriteCsvFile(dir + "/master.csv", ds.master);
  if (s.ok()) s = data::WriteConfidenceCsvFile(dir + "/confidence.csv",
                                               ds.dirty);
  if (!s.ok()) {
    std::printf("write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s/{dirty,master,confidence}.csv\n", dir.c_str());

  // Clean files-in / files-out: every input is a path. The dirty relation
  // and its confidences are loaded here; the engine loads the master data
  // and parses the rules against the dirty relation's schema.
  auto schema = data::InferCsvSchema(dir + "/dirty.csv", "data");
  if (!schema.ok()) {
    std::printf("read failed: %s\n", schema.status().ToString().c_str());
    return 1;
  }
  auto dirty = data::ReadCsvFile(dir + "/dirty.csv", *schema);
  if (!dirty.ok()) {
    std::printf("read failed: %s\n", dirty.status().ToString().c_str());
    return 1;
  }
  s = data::ReadConfidenceCsvFile(dir + "/confidence.csv", &*dirty);
  if (!s.ok()) {
    std::printf("read failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto engine = EngineBuilder()
                    .WithDataSchema(*schema)
                    .WithMasterCsv(dir + "/master.csv")
                    .WithRuleText(ds.rule_text)
                    .WithEta(1.0)  // §8: confidence threshold 1.0
                    .BuildEngine();
  if (!engine.ok()) {
    std::printf("config error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  Session session = (*engine)->NewSession();
  auto result = session.Run(&*dirty);
  if (!result.ok()) {
    std::printf("run error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("cleaned: %d deterministic, %d reliable, %d possible fixes\n",
              result->journal.CountForPhase(PhaseName(Phase::kCRepair)),
              result->journal.CountForPhase(PhaseName(Phase::kERepair)),
              result->journal.CountForPhase(PhaseName(Phase::kHRepair)));

  // Export the repaired relation and the structured fix provenance.
  s = data::WriteCsvFile(dir + "/repaired.csv", *dirty);
  if (s.ok()) s = result->journal.WriteTextFile(dir + "/fixes.txt");
  if (s.ok()) s = result->journal.WriteCsvFile(dir + "/fixes.csv");
  if (!s.ok()) {
    std::printf("write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s/repaired.csv, fixes.txt and fixes.csv (%zu entries)\n",
              dir.c_str(), result->journal.size());
  return 0;
}
