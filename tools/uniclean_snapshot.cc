// uniclean_snapshot: inspect, verify and write engine snapshot files
// (src/snapshot/, the .ucsnap format unicleand --snapshot-dir serves from).
//
//   uniclean_snapshot inspect FILE
//       Decode the header and section table: format version, engine
//       fingerprint, per-section ids/sizes/CRCs.
//   uniclean_snapshot verify FILE
//       Full container validation (header CRC, every section CRC, the
//       required sections). Exit 0 = intact, 1 = corrupt/unreadable.
//   uniclean_snapshot write FILE --master M.csv --rules R.txt --schema D.csv
//       [--eta F] [--delta1 N] [--delta2 F] [--no-memos]
//       Build + warm an engine from the given sources (the same flags
//       unicleand takes, parsed as strictly: a value that is not a number
//       prints the error and the usage and exits 2) and snapshot it to
//       FILE. A fresh engine's memos are empty, so its memo sections hold
//       no entries; a daemon's shutdown snapshot carries the memo heat it
//       earned.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "data/csv.h"
#include "flag_parse.h"
#include "snapshot/snapshot.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT
using tools::ParseDouble;
using tools::ParseInt;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: uniclean_snapshot inspect FILE\n"
               "       uniclean_snapshot verify FILE\n"
               "       uniclean_snapshot write FILE --master M.csv "
               "--rules R.txt --schema D.csv\n"
               "         [--eta F] [--delta1 N] [--delta2 F] [--no-memos]\n");
  return 2;
}

const char* SectionName(uint32_t id) {
  switch (static_cast<snapshot::SectionId>(id)) {
    case snapshot::SectionId::kEnvironment:
      return "environment";
    case snapshot::SectionId::kMatcher:
      return "matcher";
    case snapshot::SectionId::kMemos:
      return "memos";
  }
  return "unknown";
}

int Inspect(const std::string& path) {
  Result<snapshot::SnapshotInfo> info = snapshot::Inspect(path);
  if (!info.ok()) {
    std::fprintf(stderr, "uniclean_snapshot: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  const snapshot::Header& h = info->header;
  std::printf("%s: %" PRIu64 " bytes, format v%u\n", path.c_str(),
              info->file_bytes, h.version);
  std::printf("  engine fingerprint  %016" PRIx64 "\n", h.engine_fingerprint);
  std::printf("  sections            %u\n", h.section_count);
  for (const snapshot::SectionHeader& s : info->sections) {
    std::printf("    %-12s", SectionName(s.id));
    if (s.rule_id == snapshot::kNoRule) {
      std::printf(" rule=-   ");
    } else {
      std::printf(" rule=%-4u", s.rule_id);
    }
    std::printf(" %10" PRIu64 " bytes  crc %08x\n", s.length, s.crc);
  }
  return 0;
}

int Verify(const std::string& path) {
  const Status status = snapshot::Verify(path);
  if (!status.ok()) {
    std::fprintf(stderr, "uniclean_snapshot: %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("%s: OK\n", path.c_str());
  return 0;
}

int Write(const std::string& path, int argc, char** argv) {
  std::string master_csv;
  std::string rules_file;
  std::string schema_csv;
  double eta = 0.8;
  int delta1 = 5;
  double delta2 = 0.8;
  snapshot::SnapshotWriteOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--master" && (v = next()) != nullptr) {
      master_csv = v;
    } else if (arg == "--rules" && (v = next()) != nullptr) {
      rules_file = v;
    } else if (arg == "--schema" && (v = next()) != nullptr) {
      schema_csv = v;
    } else if (arg == "--eta" && (v = next()) != nullptr) {
      if (!ParseDouble("--eta", v, &eta)) return Usage();
    } else if (arg == "--delta1" && (v = next()) != nullptr) {
      if (!ParseInt("--delta1", v, &delta1)) return Usage();
    } else if (arg == "--delta2" && (v = next()) != nullptr) {
      if (!ParseDouble("--delta2", v, &delta2)) return Usage();
    } else if (arg == "--no-memos") {
      options.include_memos = false;
    } else {
      std::fprintf(stderr, "uniclean_snapshot: bad argument '%s'\n",
                   arg.c_str());
      return Usage();
    }
  }
  if (master_csv.empty() || rules_file.empty() || schema_csv.empty()) {
    std::fprintf(stderr,
                 "uniclean_snapshot write needs --master, --rules and "
                 "--schema\n");
    return Usage();
  }
  Result<data::SchemaPtr> schema = data::InferCsvSchema(schema_csv, "data");
  if (!schema.ok()) {
    std::fprintf(stderr, "uniclean_snapshot: %s\n",
                 schema.status().ToString().c_str());
    return 1;
  }
  Result<std::shared_ptr<CleanEngine>> engine =
      EngineBuilder()
          .WithDataSchema(schema.value())
          .WithMasterCsv(master_csv)
          .WithRulesFile(rules_file)
          .WithEta(eta)
          .WithDelta1(delta1)
          .WithDelta2(delta2)
          .BuildEngine();
  if (!engine.ok()) {
    std::fprintf(stderr, "uniclean_snapshot: engine build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  const Status status = snapshot::WriteSnapshot(**engine, path, options);
  if (!status.ok()) {
    std::fprintf(stderr, "uniclean_snapshot: write failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return Inspect(path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string path = argv[2];
  if (command == "inspect" && argc == 3) return Inspect(path);
  if (command == "verify" && argc == 3) return Verify(path);
  if (command == "write") return Write(path, argc - 3, argv + 3);
  return Usage();
}
