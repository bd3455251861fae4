// src/snapshot/ contract tests.
//
// Two halves:
//  1. Round-trip parity — an engine warm-started with
//     EngineBuilder::FromSnapshot must be observationally identical to the
//     cold-built engine the snapshot came from: byte-identical CLEAN and
//     DELTA journals on HOSP/DBLP/TPCH, also when the loading process
//     interned other strings first, zero MdMatcher constructions during
//     the load, memo contents carried across when asked for.
//  2. Hostile-file hardening — truncations, bit flips, forged lengths, wrong
//     magic, older and future versions, a forged suffix array or string
//     table behind a valid CRC and configuration mismatches must surface as
//     the structured codes snapshot.h promises (kDataLoss vs
//     kFailedPrecondition vs kNotFound), never an abort or a half-restored
//     engine.
//
// Each cold or warm run gets its own ScopedStringPool, as a fresh process
// would, and every file lives in a ScratchDir removed with the test.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "data/relation.h"
#include "data/string_pool.h"
#include "gen/dataset.h"
#include "scratch_dir.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "uniclean/engine.h"
#include "uniclean/session.h"

namespace uniclean {
namespace {

gen::GeneratorConfig SmallConfig(uint64_t seed) {
  gen::GeneratorConfig config;
  config.num_tuples = 200;
  config.master_size = 100;
  config.noise_rate = 0.08;
  config.dup_rate = 0.4;
  config.asserted_rate = 0.4;
  config.seed = seed;
  return config;
}

gen::Dataset Generate(const std::string& name, uint64_t seed) {
  const gen::GeneratorConfig config = SmallConfig(seed);
  if (name == "HOSP") return gen::GenerateHosp(config);
  if (name == "DBLP") return gen::GenerateDblp(config);
  return gen::GenerateTpch(config);
}

/// The builder configuration shared by every cold build and every
/// FromSnapshot in these tests; any knob a test varies (eta, matcher
/// options) is a deliberate mismatch probe.
EngineBuilder Configure(const gen::Dataset& ds, double eta = 1.0,
                        core::MdMatcherOptions matcher = {}) {
  EngineBuilder builder;
  builder.WithDataSchema(ds.dirty.schema_ptr())
      .WithMaster(&ds.master)
      .WithRules(&ds.rules)
      .WithEta(eta)
      .WithMatcherOptions(matcher);
  return builder;
}

/// Runs one untracked session over a fresh clone of the dirty relation and
/// returns the journal's text + CSV serializations.
std::string RunJournal(const std::shared_ptr<CleanEngine>& engine,
                       const gen::Dataset& ds) {
  data::Relation d = ds.dirty.Clone();
  Session session = engine->NewSession();
  auto result = session.Run(&d);
  if (!result.ok()) {
    ADD_FAILURE() << "Run failed: " << result.status().ToString();
    return {};
  }
  std::ostringstream text;
  std::ostringstream csv;
  EXPECT_TRUE(result->journal.WriteText(text).ok());
  EXPECT_TRUE(result->journal.WriteCsv(csv).ok());
  return text.str() + "\n--\n" + csv.str();
}

/// Runs a tracked session, applies one delta (an insert and a delete), and
/// returns the session journal's CSV serialization.
std::string RunDeltaJournal(const std::shared_ptr<CleanEngine>& engine,
                            const gen::Dataset& ds) {
  data::Relation d = ds.dirty.Clone();
  Session session = engine->NewTrackedSession();
  auto run = session.Run(&d);
  if (!run.ok()) {
    ADD_FAILURE() << "tracked Run failed: " << run.status().ToString();
    return {};
  }
  Delta delta;
  delta.inserts.push_back(ds.dirty.tuples()[1]);
  delta.deletes.push_back(0);
  auto dr = session.ApplyDelta(delta);
  if (!dr.ok()) {
    ADD_FAILURE() << "ApplyDelta failed: " << dr.status().ToString();
    return {};
  }
  std::ostringstream csv;
  EXPECT_TRUE(session.journal().WriteCsv(csv).ok());
  return csv.str();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void PatchU32(std::string* bytes, size_t offset, uint32_t v) {
  ASSERT_LE(offset + 4, bytes->size());
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// Re-seals the header after a deliberate field edit, so the test
/// exercises the *semantic* check behind the CRC rather than the CRC itself.
void ResealHeader(std::string* bytes) {
  PatchU32(bytes, snapshot::kHeaderBytes - 4,
           snapshot::Crc32(bytes->data(), snapshot::kHeaderBytes - 4));
}

/// Decodes the header of a well-formed snapshot, applies `edit` and writes
/// it back re-encoded and re-sealed: a field edit without hard-coded
/// offsets.
void EditHeader(std::string* bytes,
                const std::function<void(snapshot::Header*)>& edit) {
  auto header = snapshot::DecodeHeader(*bytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  edit(&*header);
  std::string encoded;
  snapshot::EncodeHeader(*header, &encoded);
  ASSERT_EQ(encoded.size(), snapshot::kHeaderBytes);
  bytes->replace(0, snapshot::kHeaderBytes, encoded);
}

/// A section header and where it starts in the file.
struct SectionAt {
  size_t offset = 0;
  snapshot::SectionHeader header;
  size_t payload() const { return offset + snapshot::kSectionHeaderBytes; }
};

/// Walks the section table of a well-formed snapshot.
std::vector<SectionAt> Sections(const std::string& bytes) {
  std::vector<SectionAt> sections;
  for (size_t offset = snapshot::kHeaderBytes; offset < bytes.size();) {
    auto header = snapshot::DecodeSectionHeader(bytes, offset);
    if (!header.ok()) {
      ADD_FAILURE() << header.status().ToString();
      break;
    }
    sections.push_back({offset, *header});
    offset += snapshot::kSectionHeaderBytes + header->length;
  }
  return sections;
}

/// The first section of kind `id`.
SectionAt FirstSection(const std::string& bytes, snapshot::SectionId id) {
  for (const SectionAt& section : Sections(bytes)) {
    if (section.header.id == static_cast<uint32_t>(id)) return section;
  }
  ADD_FAILURE() << "no section with id " << static_cast<uint32_t>(id);
  return {};
}

/// The little-endian u32 at `bytes[offset]`.
uint32_t ReadU32(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + i]))
         << (8 * i);
  }
  return v;
}

/// Where the string table of the memo section at `section` ends: its
/// payload opens with `u32 n | n x (u32 length | bytes)`.
size_t StringTableEnd(const std::string& bytes, const SectionAt& section) {
  size_t at = section.payload();
  const uint32_t n = ReadU32(bytes, at);
  at += 4;
  for (uint32_t i = 0; i < n; ++i) at += 4 + ReadU32(bytes, at);
  return at;
}

/// Re-seals the CRC of the section at `section` and the header, so edited
/// payload bytes reach the decoders.
void ResealSection(std::string* bytes, const SectionAt& section) {
  const auto header = snapshot::DecodeSectionHeader(*bytes, section.offset);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  PatchU32(bytes, section.offset + 16,
           snapshot::Crc32(bytes->data() + section.payload(),
                           static_cast<size_t>(header->length)));
  ResealHeader(bytes);
}

// ---------------------------------------------------------------------------
// Round-trip parity
// ---------------------------------------------------------------------------

class SnapshotParity
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {
 protected:
  std::string Name() const { return std::get<0>(GetParam()); }
  uint64_t Seed() const { return std::get<1>(GetParam()); }
  std::string Path(const char* tag) const {
    return scratch_.path() + "/" + tag + ".ucsnap";
  }

  const testing::ScratchDir scratch_{"uniclean_snapshot_test"};
};

TEST_P(SnapshotParity, WarmStartJournalsAreByteIdentical) {
  const std::string path = Path("parity");
  std::string cold_journal;
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate(Name(), Seed());
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    cold_journal = RunJournal(*engine, ds);
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path).ok());
  }
  ASSERT_FALSE(cold_journal.empty());
  EXPECT_TRUE(snapshot::Verify(path).ok());

  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate(Name(), Seed());
  const uint64_t constructed_before = core::MdMatcher::ConstructedCount();
  auto engine = Configure(ds).FromSnapshot(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // The whole point: a warm start deserializes matchers, it never builds one.
  EXPECT_EQ(core::MdMatcher::ConstructedCount(), constructed_before);
  EXPECT_EQ((*engine)->snapshot_source(), path);
  EXPECT_GT((*engine)->snapshot_load_seconds(), 0.0);
  EXPECT_EQ(RunJournal(*engine, ds), cold_journal);
}

TEST_P(SnapshotParity, TrackedDeltaJournalsAreByteIdentical) {
  const std::string path = Path("delta");
  std::string cold_delta;
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate(Name(), Seed());
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    // Snapshot the *fresh* warm engine, then run: the snapshot must not
    // depend on any session having run.
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path).ok());
    cold_delta = RunDeltaJournal(*engine, ds);
  }

  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate(Name(), Seed());
  auto engine = Configure(ds).FromSnapshot(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(RunDeltaJournal(*engine, ds), cold_delta);
}

TEST_P(SnapshotParity, LoadIntoAPoolWithOtherIdsKeepsTheJournals) {
  // The file is written in one pool and loaded into one that interned 500
  // junk strings first, so every id the load and the runs see differs
  // from the writer's. The memo keys name their strings, so the load maps
  // them to the live ids: the warm run hits every memo entry the cold run
  // left, and its journals are the cold run's.
  const std::string path = Path("other_ids");
  std::string cold_journal;
  std::string cold_delta;
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate(Name(), Seed());
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    cold_journal = RunJournal(*engine, ds);
    ASSERT_GT((*engine)->environment().MemoStats().entries, 0u);
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path).ok());
    cold_delta = RunDeltaJournal(*engine, ds);
  }
  ASSERT_FALSE(cold_journal.empty());

  data::ScopedStringPool scoped;
  for (int i = 0; i < 500; ++i) {
    scoped.pool().Intern("junk-" + std::to_string(i));
  }
  gen::Dataset ds = Generate(Name(), Seed());
  const uint64_t constructed_before = core::MdMatcher::ConstructedCount();
  auto engine = Configure(ds).FromSnapshot(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(core::MdMatcher::ConstructedCount(), constructed_before);
  EXPECT_EQ(RunJournal(*engine, ds), cold_journal);
  EXPECT_EQ((*engine)->environment().MemoStats().misses, 0u);
  EXPECT_EQ(RunDeltaJournal(*engine, ds), cold_delta);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, SnapshotParity,
    ::testing::Combine(::testing::Values("HOSP", "DBLP", "TPCH"),
                       ::testing::Values(11u, 29u)),
    [](const ::testing::TestParamInfo<SnapshotParity::ParamType>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Memos, determinism, inspection
// ---------------------------------------------------------------------------

class SnapshotHosp : public ::testing::Test {
 protected:
  std::string Path(const char* tag) const {
    return scratch_.path() + "/" + tag + ".ucsnap";
  }

  const testing::ScratchDir scratch_{"uniclean_snapshot_test"};
};

TEST_F(SnapshotHosp, MemoContentsRoundTrip) {
  const std::string path = Path("memos");
  uint64_t entries_before = 0;
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    // A run populates the match-list and blocking memos; the snapshot
    // should carry exactly those entries across.
    RunJournal(*engine, ds);
    entries_before = (*engine)->environment().MemoStats().entries;
    ASSERT_GT(entries_before, 0u);
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path).ok());
  }
  {
    auto info = snapshot::Inspect(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    int memo_sections = 0;
    for (const auto& section : info->sections) {
      memo_sections +=
          section.id == static_cast<uint32_t>(snapshot::SectionId::kMemos);
    }
    EXPECT_GT(memo_sections, 0);
  }
  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate("HOSP", 11);
  auto engine = Configure(ds).FromSnapshot(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->environment().MemoStats().entries, entries_before);
}

TEST_F(SnapshotHosp, WithoutMemosLoadsCold) {
  const std::string path = Path("nomemos");
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    RunJournal(*engine, ds);
    snapshot::SnapshotWriteOptions options;
    options.include_memos = false;
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path, options).ok());
  }
  {
    auto info = snapshot::Inspect(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    for (const auto& section : info->sections) {
      EXPECT_NE(section.id,
                static_cast<uint32_t>(snapshot::SectionId::kMemos));
    }
  }
  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate("HOSP", 11);
  auto engine = Configure(ds).FromSnapshot(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->environment().MemoStats().entries, 0u);
}

TEST_F(SnapshotHosp, NonMemoWritesAreByteDeterministic) {
  const std::string path_a = Path("det_a");
  const std::string path_b = Path("det_b");
  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate("HOSP", 11);
  auto engine = Configure(ds).BuildEngine();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  snapshot::SnapshotWriteOptions options;
  options.include_memos = false;
  ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path_a, options).ok());
  ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path_b, options).ok());
  EXPECT_EQ(ReadFileBytes(path_a), ReadFileBytes(path_b));
}

TEST_F(SnapshotHosp, LoadedEngineCanSnapshotAgain) {
  const std::string path_a = Path("cycle_a");
  const std::string path_b = Path("cycle_b");
  std::string cold_journal;
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    cold_journal = RunJournal(*engine, ds);
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path_a).ok());
  }
  // The RELOAD cycle a daemon performs: load from a snapshot, write a new
  // snapshot, load from *that* — parity must survive the round trip.
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds).FromSnapshot(path_a);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path_b).ok());
  }
  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate("HOSP", 11);
  auto engine = Configure(ds).FromSnapshot(path_b);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(RunJournal(*engine, ds), cold_journal);
}

TEST_F(SnapshotHosp, InspectReportsTheSectionTable) {
  const std::string path = Path("inspect");
  int num_matchers = 0;
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path).ok());
    num_matchers = (*engine)->environment().num_matchers();
    ASSERT_GT(num_matchers, 0);
  }
  auto info = snapshot::Inspect(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->header.version, snapshot::kFormatVersion);
  EXPECT_EQ(info->header.section_count, info->sections.size());
  EXPECT_GT(info->file_bytes, snapshot::kHeaderBytes);
  int environments = 0;
  int matchers = 0;
  for (const auto& section : info->sections) {
    if (section.id == static_cast<uint32_t>(snapshot::SectionId::kEnvironment))
      ++environments;
    if (section.id == static_cast<uint32_t>(snapshot::SectionId::kMatcher)) {
      EXPECT_NE(section.rule_id, snapshot::kNoRule);
      ++matchers;
    }
  }
  EXPECT_EQ(environments, 1);
  EXPECT_EQ(matchers, num_matchers);
}

TEST_F(SnapshotHosp, ConcurrentWritersOfOnePathEachInstallAWholeFile) {
  // Two engines write one path from two threads, 50 times each, as
  // replicas that own one ruleset write into a shared snapshot dir. Each
  // write renames its own temp file into place, so every write succeeds,
  // the file left behind is one of them whole, and no temp file remains.
  const std::string path = Path("shared");
  data::ScopedStringPool scoped;
  const gen::Dataset a = Generate("HOSP", 11);
  const gen::Dataset b = Generate("HOSP", 29);
  auto engine_a = Configure(a).BuildEngine();
  auto engine_b = Configure(b).BuildEngine();
  ASSERT_TRUE(engine_a.ok()) << engine_a.status().ToString();
  ASSERT_TRUE(engine_b.ok()) << engine_b.status().ToString();
  RunJournal(*engine_a, a);
  RunJournal(*engine_b, b);
  constexpr int kWrites = 50;
  std::vector<Status> statuses(2 * kWrites, Status::OK());
  const auto write = [&](const CleanEngine& engine, size_t first) {
    for (size_t i = 0; i < kWrites; ++i) {
      statuses[first + i] = snapshot::WriteSnapshot(engine, path);
    }
  };
  std::thread writer_a(write, std::cref(**engine_a), 0);
  std::thread writer_b(write, std::cref(**engine_b), kWrites);
  writer_a.join();
  writer_b.join();
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  const Status verified = snapshot::Verify(path);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch_.path())) {
    EXPECT_EQ(entry.path().string(), path);
  }
}

// ---------------------------------------------------------------------------
// Engine fingerprint: the snapshot's identity check
// ---------------------------------------------------------------------------

/// Fingerprints of engines built from HOSP seed 11's master and an edited
/// copy of its rule program.
class EngineFingerprintTest : public ::testing::Test {
 protected:
  uint64_t Fingerprint(const std::string& rule_text,
                       core::MdMatcherOptions matcher = {}) {
    EngineBuilder builder;
    builder.WithDataSchema(ds_.dirty.schema_ptr())
        .WithMaster(&ds_.master)
        .WithRuleText(rule_text)
        .WithMatcherOptions(matcher);
    auto engine = builder.BuildEngine();
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? (*engine)->Fingerprint() : 0;
  }

  /// The program with the first occurrence of `from` replaced by `to`.
  std::string Edited(const std::string& from, const std::string& to) const {
    std::string text = ds_.rule_text;
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  }

  data::ScopedStringPool scoped_;  // constructed before ds_ interns
  gen::Dataset ds_ = Generate("HOSP", 11);
};

TEST_F(EngineFingerprintTest, IdenticalProgramsGetEqualFingerprints) {
  const uint64_t base = Fingerprint(ds_.rule_text);
  EXPECT_EQ(Fingerprint(ds_.rule_text), base);
  // The same threshold spelled differently is the same program.
  EXPECT_EQ(Fingerprint(Edited("~jw:0.95 ", "~jw:0.950 ")), base);
  // Options that change no match list stay out.
  core::MdMatcherOptions matcher;
  matcher.use_memos = false;
  matcher.memo_capacity = 7777;
  EXPECT_EQ(Fingerprint(ds_.rule_text, matcher), base);
}

TEST_F(EngineFingerprintTest, OneEditedRuleChangesTheFingerprint) {
  const uint64_t base = Fingerprint(ds_.rule_text);
  // An MD threshold at the third decimal, with the rule name kept.
  EXPECT_NE(Fingerprint(Edited("~jw:0.95 ", "~jw:0.951 ")), base);
  EXPECT_NE(Fingerprint(Edited("~edit:3 ", "~edit:4 ")), base);
  // One CFD constant.
  EXPECT_NE(Fingerprint(Edited("City='", "City='X")), base);
  // One MD action.
  EXPECT_NE(Fingerprint(Edited("ZIP:=ZIP", "City:=City")), base);
  // Blocking decides which master tuples a probe verifies.
  core::MdMatcherOptions matcher;
  matcher.use_blocking = false;
  EXPECT_NE(Fingerprint(ds_.rule_text, matcher), base);
}

// ---------------------------------------------------------------------------
// Hostile files and configuration mismatches
// ---------------------------------------------------------------------------

class SnapshotHardening : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = Path("good");
    mutated_path_ = Path("mutated");
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    data_schema_ = ds.dirty.schema_ptr();
    rule_text_ = ds.rule_text;
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path_).ok());
    good_ = ReadFileBytes(path_);
    ASSERT_GT(good_.size(), snapshot::kHeaderBytes);
    // An MD rule that shares a lower rule id's matcher: the snapshot files
    // no section under it.
    const core::MatchEnvironment& env = (*engine)->environment();
    for (rules::RuleId rule = 0; rule < ds.rules.num_rules(); ++rule) {
      const core::MdMatcher* matcher = env.matcher(rule);
      if (matcher != nullptr && &matcher->md() != &ds.rules.md(rule)) {
        non_owner_rule_ = static_cast<uint32_t>(rule);
        break;
      }
    }
  }

  std::string Path(const char* tag) const {
    return scratch_.path() + "/" + tag + ".ucsnap";
  }

  /// Attempts a warm start of `path` under the standard configuration.
  /// Also drives Verify() and Inspect() over the same file — hostile bytes
  /// must never crash any entry point.
  Status TryLoad(const std::string& path, double eta = 1.0,
                 core::MdMatcherOptions matcher = {}) {
    snapshot::Verify(path).ok();                 // must not crash
    auto info = snapshot::Inspect(path);         // must not crash
    (void)info;
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds, eta, matcher).FromSnapshot(path);
    return engine.status();
  }

  Status TryLoadBytes(const std::string& bytes) {
    WriteFileBytes(mutated_path_, bytes);
    return TryLoad(mutated_path_);
  }

  /// good_ with the first section of kind `id` re-filed under
  /// non_owner_rule_. Section headers carry no CRC, so nothing is re-sealed.
  std::string RefiledUnderNonOwner(snapshot::SectionId id) const {
    std::string bytes = good_;
    const SectionAt section = FirstSection(bytes, id);
    PatchU32(&bytes, section.offset + 4, non_owner_rule_);
    return bytes;
  }

  const testing::ScratchDir scratch_{"uniclean_snapshot_test"};
  std::string path_;
  std::string mutated_path_;
  data::SchemaPtr data_schema_;
  std::string rule_text_;
  std::string good_;
  uint32_t non_owner_rule_ = snapshot::kNoRule;
};

TEST_F(SnapshotHardening, GoodFileLoadsAndVerifies) {
  EXPECT_TRUE(snapshot::Verify(path_).ok());
  EXPECT_TRUE(TryLoad(path_).ok());
}

TEST_F(SnapshotHardening, MissingFileIsNotFound) {
  const Status s = TryLoad(Path("does_not_exist"));
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
}

TEST_F(SnapshotHardening, TruncationsAreDataLoss) {
  const std::vector<size_t> lengths = {
      0,
      1,
      snapshot::kHeaderBytes - 1,
      snapshot::kHeaderBytes,
      snapshot::kHeaderBytes + snapshot::kSectionHeaderBytes - 1,
      good_.size() / 2,
      good_.size() - 1,
  };
  for (const size_t n : lengths) {
    const Status s = TryLoadBytes(good_.substr(0, n));
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << "truncated to " << n << " bytes: " << s.ToString();
  }
}

TEST_F(SnapshotHardening, BitFlipsAreDataLoss) {
  // Header bytes (CRC-sealed), a section length field, and payload bytes
  // (section-CRC-sealed) spread across the file.
  const std::vector<size_t> offsets = {
      9,                                               // header: version
      16,                                              // header: fingerprint
      21,                                              // header: section count
      snapshot::kHeaderBytes + 8,                      // section: length
      snapshot::kHeaderBytes + snapshot::kSectionHeaderBytes + 3,  // payload
      good_.size() / 2,
      good_.size() - 1,
  };
  for (const size_t offset : offsets) {
    std::string bytes = good_;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    const Status s = TryLoadBytes(bytes);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss)
        << "bit flip at offset " << offset << ": " << s.ToString();
  }
}

TEST_F(SnapshotHardening, WrongMagicIsDataLoss) {
  std::string bytes = good_;
  bytes[0] = 'X';
  const Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

TEST_F(SnapshotHardening, FutureVersionIsFailedPrecondition) {
  // A well-formed file from a future writer: version bumped *and* the
  // header re-sealed, so this exercises the version gate, not the CRC.
  std::string bytes = good_;
  PatchU32(&bytes, 8, snapshot::kFormatVersion + 1);
  ResealHeader(&bytes);
  const Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
}

TEST_F(SnapshotHardening, ForgedSectionLengthIsDataLoss) {
  // Declare the first section far past the end of the file; the walk must
  // refuse the bounds, not read past the buffer.
  std::string bytes = good_;
  PatchU32(&bytes, snapshot::kHeaderBytes + 8, 0x7FFFFFFFu);
  PatchU32(&bytes, snapshot::kHeaderBytes + 12, 0x7FFFFFFFu);
  const Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

TEST_F(SnapshotHardening, FingerprintMismatchIsFailedPrecondition) {
  // Same bytes, different engine: a changed eta changes Fingerprint().
  const Status s = TryLoad(path_, /*eta=*/0.5);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
}

TEST_F(SnapshotHardening, MatcherOptionMismatchIsFailedPrecondition) {
  // Blocking decides which master tuples a probe verifies, so it is part
  // of the engine fingerprint.
  core::MdMatcherOptions matcher;
  matcher.use_blocking = false;
  const Status s = TryLoad(path_, /*eta=*/1.0, matcher);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("different engine"), std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotHardening, MemoCapacityDifferenceLoadsWithinTheCap) {
  // memo_capacity changes no match list, only how many stay resident: a
  // file written without a cap loads under one and keeps what fits.
  const std::string path = Path("memocap");
  uint64_t entries = 0;
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    RunJournal(*engine, ds);
    entries = (*engine)->environment().MemoStats().entries;
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path).ok());
  }
  constexpr size_t kCap = 3;
  core::MdMatcherOptions capped;
  capped.memo_capacity = kCap;
  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate("HOSP", 11);
  auto engine = Configure(ds, /*eta=*/1.0, capped).FromSnapshot(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const core::MemoStats stats = (*engine)->environment().MemoStats();
  // Two memo maps per matcher, each holding at most kCap entries.
  const size_t most =
      2 * kCap * static_cast<size_t>((*engine)->environment().num_matchers());
  ASSERT_GT(entries, most);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LE(stats.entries, most);
}

TEST_F(SnapshotHardening, UnknownSectionIsSkipped) {
  // A future writer appended a section kind this build does not know: the
  // reader must skip it by declared length and load the rest normally.
  std::string bytes = good_;
  const std::string payload = "hello";
  snapshot::SectionHeader extra;
  extra.id = 99;
  extra.rule_id = snapshot::kNoRule;
  extra.length = payload.size();
  extra.crc = snapshot::Crc32(payload);
  snapshot::EncodeSectionHeader(extra, &bytes);
  bytes += payload;
  EditHeader(&bytes, [](snapshot::Header* h) { ++h->section_count; });
  const Status s = TryLoadBytes(bytes);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(snapshot::Verify(mutated_path_).ok());
}

TEST_F(SnapshotHardening, ForgedSuffixArrayIsDataLoss) {
  // Find a suffix-array matcher section. Its payload is u32 indexed masters
  // | u8 kind (2) | u32 strings | u32 n | n x u32 suffix order.
  size_t section = 0;
  for (size_t offset = snapshot::kHeaderBytes; offset < good_.size();) {
    auto header = snapshot::DecodeSectionHeader(good_, offset);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    const size_t payload = offset + snapshot::kSectionHeaderBytes;
    if (header->id == static_cast<uint32_t>(snapshot::SectionId::kMatcher) &&
        good_[payload + 4] == 2) {
      section = offset;
      break;
    }
    offset = payload + header->length;
  }
  ASSERT_NE(section, 0u) << "no suffix-array matcher section";
  const size_t payload = section + snapshot::kSectionHeaderBytes;
  const size_t length_offset = payload + 9;
  const size_t entries = payload + 13;
  const uint32_t n = ReadU32(good_, length_offset);
  ASSERT_GT(n, 2u);
  const size_t mid = entries + 4 * (n / 2);

  // Each mutation keeps the payload length; the section CRC and the header
  // are re-sealed so the bytes reach the codec's suffix-order check.
  const std::vector<std::pair<const char*, std::function<void(std::string*)>>>
      mutations = {
          {"swap two adjacent entries",
           [&](std::string* b) {
             const uint32_t a = ReadU32(*b, mid);
             PatchU32(b, mid, ReadU32(*b, mid + 4));
             PatchU32(b, mid + 4, a);
           }},
          {"duplicate an entry",
           [&](std::string* b) { PatchU32(b, mid + 4, ReadU32(*b, mid)); }},
          {"entry set to n", [&](std::string* b) { PatchU32(b, mid, n); }},
          {"entry set to -1",
           [&](std::string* b) { PatchU32(b, mid, 0xFFFFFFFFu); }},
          {"n declared one short",
           [&](std::string* b) { PatchU32(b, length_offset, n - 1); }},
      };
  for (const auto& [what, mutate] : mutations) {
    std::string bytes = good_;
    mutate(&bytes);
    const auto header = snapshot::DecodeSectionHeader(bytes, section);
    ASSERT_TRUE(header.ok());
    PatchU32(&bytes, section + 16,
             snapshot::Crc32(bytes.data() + payload, header->length));
    ResealHeader(&bytes);
    const Status s = TryLoadBytes(bytes);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << what << ": " << s.ToString();
    EXPECT_NE(s.message().find("suffix array"), std::string::npos)
        << what << ": " << s.ToString();
  }
}

TEST_F(SnapshotHardening, Version2IsFailedPrecondition) {
  // A v2 file (one matcher section per MD rule) is refused like any other
  // version: the loader has no v2 reader, and a daemon cold-builds instead.
  std::string bytes = good_;
  PatchU32(&bytes, 8, 2);
  ResealHeader(&bytes);
  const Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("version 2"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotHardening, Version3IsFailedPrecondition) {
  // A v3 file's memo sections also hold per-clause similarity outcomes,
  // which this build keeps no memo for. It is refused like v2, and a daemon
  // cold-builds and rewrites it.
  std::string bytes = good_;
  PatchU32(&bytes, 8, 3);
  ResealHeader(&bytes);
  const Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("version 3"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotHardening, Version4IsFailedPrecondition) {
  // v4 sealed a 64-byte header that also held matcher options and a flags
  // word, and persisted equality indexes. A v4 file is refused by version,
  // whether its header is read under this format's seal or under its own.
  std::string bytes = good_;
  PatchU32(&bytes, 8, 4);
  ResealHeader(&bytes);
  Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("version 4"), std::string::npos) << s.ToString();

  // The v4 layout: magic | u32 version | u32 flags | u64 fingerprint | u32
  // top_l | u32 matcher flags | u64 memo capacity | u64 pool count | u64
  // pool hash | u32 section count | u32 CRC of bytes [0, 60).
  std::string v4(snapshot::kMagic, sizeof(snapshot::kMagic));
  snapshot::PutU32(&v4, 4);
  snapshot::PutU32(&v4, 1);
  snapshot::PutU64(&v4, 0x92fac2a46cea8ed7ull);
  snapshot::PutU32(&v4, 20);
  snapshot::PutU32(&v4, 3);
  snapshot::PutU64(&v4, 0);
  snapshot::PutU64(&v4, 396);
  snapshot::PutU64(&v4, 0xd9c66aadd109a646ull);
  snapshot::PutU32(&v4, 8);
  snapshot::PutU32(&v4, snapshot::Crc32(v4.data(), v4.size()));
  ASSERT_EQ(v4.size(), 64u);
  v4 += good_.substr(snapshot::kHeaderBytes);
  s = TryLoadBytes(v4);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("format version 4 is not supported"),
            std::string::npos)
      << s.ToString();
  // The same header with one bit flipped is corruption, not a version.
  v4[24] = static_cast<char>(v4[24] ^ 0x10);
  s = TryLoadBytes(v4);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

TEST_F(SnapshotHardening, Version5IsFailedPrecondition) {
  // v5 sealed a 44-byte header that also held the writer's string-pool
  // generation, and its memo keys were that pool's ids. A v5 file is
  // refused by version, whether its header is read under this format's
  // seal or under its own.
  std::string bytes = good_;
  PatchU32(&bytes, 8, 5);
  ResealHeader(&bytes);
  Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("version 5"), std::string::npos) << s.ToString();

  // The v5 layout: magic | u32 version | u64 fingerprint | u64 pool count |
  // u64 pool hash | u32 section count | u32 CRC of bytes [0, 40).
  std::string v5(snapshot::kMagic, sizeof(snapshot::kMagic));
  snapshot::PutU32(&v5, 5);
  snapshot::PutU64(&v5, 0x92fac2a46cea8ed7ull);
  snapshot::PutU64(&v5, 396);
  snapshot::PutU64(&v5, 0xd9c66aadd109a646ull);
  snapshot::PutU32(&v5, 8);
  snapshot::PutU32(&v5, snapshot::Crc32(v5.data(), v5.size()));
  ASSERT_EQ(v5.size(), 44u);
  v5 += good_.substr(snapshot::kHeaderBytes);
  s = TryLoadBytes(v5);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("format version 5 is not supported"),
            std::string::npos)
      << s.ToString();
  // The same header with one bit flipped is corruption, not a version.
  v5[24] = static_cast<char>(v5[24] ^ 0x10);
  s = TryLoadBytes(v5);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

TEST_F(SnapshotHardening, EditedRulesWithTheSameNamesAreFailedPrecondition) {
  // md3's thresholds edited with every rule name kept: the match lists the
  // file holds were computed under the old predicates, so the fingerprint
  // refuses it, and the engine the edited rules build cleans differently.
  std::string edited = rule_text_;
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"~jw:0.95 ", "~jw:0.60 "},
        {"~edit:3 ", "~edit:12 "}}) {
    const size_t at = edited.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    edited.replace(at, from.size(), to);
  }
  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate("HOSP", 11);
  EngineBuilder builder;
  builder.WithDataSchema(data_schema_)
      .WithMaster(&ds.master)
      .WithRuleText(edited)
      .WithEta(1.0);
  const Status s = builder.FromSnapshot(path_).status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  EXPECT_NE(s.message().find("different engine"), std::string::npos)
      << s.ToString();

  auto cold = Configure(ds).BuildEngine();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EngineBuilder rebuilt;
  rebuilt.WithDataSchema(data_schema_)
      .WithMaster(&ds.master)
      .WithRuleText(edited)
      .WithEta(1.0);
  auto edited_engine = rebuilt.BuildEngine();
  ASSERT_TRUE(edited_engine.ok()) << edited_engine.status().ToString();
  EXPECT_NE(RunJournal(*edited_engine, ds), RunJournal(*cold, ds));
}

TEST_F(SnapshotHardening, MatcherSectionUnderNonOwnerRuleIsDataLoss) {
  ASSERT_NE(non_owner_rule_, snapshot::kNoRule) << "no MD shares a matcher";
  const Status s =
      TryLoadBytes(RefiledUnderNonOwner(snapshot::SectionId::kMatcher));
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("owns no matcher"), std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotHardening, MemoSectionUnderNonOwnerRuleIsDataLoss) {
  ASSERT_NE(non_owner_rule_, snapshot::kNoRule) << "no MD shares a matcher";
  const Status s =
      TryLoadBytes(RefiledUnderNonOwner(snapshot::SectionId::kMemos));
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("owns no matcher"), std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotHardening, MissingOwnerSectionIsDataLoss) {
  // Drop the first matcher section and re-seal the header's section count:
  // the rules that share its matcher have nothing to restore from.
  std::string bytes = good_;
  const SectionAt section =
      FirstSection(bytes, snapshot::SectionId::kMatcher);
  bytes.erase(section.offset,
              snapshot::kSectionHeaderBytes + section.header.length);
  EditHeader(&bytes, [](snapshot::Header* h) { --h->section_count; });
  const Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("missing matcher section"), std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotHardening, MatcherSectionsRecordTheWholeMaster) {
  // An engine's master never changes, so each matcher section opens with
  // the master's full size as its indexed count. A count that disagrees,
  // behind a valid CRC, is refused rather than trusted.
  uint32_t master_size = 0;
  {
    data::ScopedStringPool scoped;
    master_size = static_cast<uint32_t>(Generate("HOSP", 11).master.size());
  }
  ASSERT_GT(master_size, 0u);
  int matchers = 0;
  for (const SectionAt& section : Sections(good_)) {
    if (section.header.id !=
        static_cast<uint32_t>(snapshot::SectionId::kMatcher)) {
      continue;
    }
    ++matchers;
    EXPECT_EQ(ReadU32(good_, section.payload()), master_size)
        << "matcher section at " << section.offset;
  }
  ASSERT_GT(matchers, 0);

  std::string bytes = good_;
  const SectionAt section =
      FirstSection(bytes, snapshot::SectionId::kMatcher);
  PatchU32(&bytes, section.payload(), master_size - 1);
  PatchU32(&bytes, section.offset + 16,
           snapshot::Crc32(bytes.data() + section.payload(),
                           section.header.length));
  ResealHeader(&bytes);
  const Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("different master size"), std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotHardening, SeededMutationsBehindValidCrcsReturnAStatus) {
  // Every matcher and memo section of a snapshot with memos, mutated by
  // seeded 1-4-byte overwrites and truncations of 1 to 8 bytes, at most the
  // whole payload (length patched), then re-sealed, so the bytes reach the
  // decoders; each memo section also gets overwrites confined to its string
  // table. Each load must return a Status — OK or DataLoss, since only
  // codec payloads change — and never abort or trip a sanitizer.
  const std::string path = Path("mutation");
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    RunJournal(*engine, ds);
    ASSERT_GT((*engine)->environment().MemoStats().entries, 0u);
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path).ok());
  }
  const std::string good = ReadFileBytes(path);
  // One pool and one dataset serve every load. A mutated string table may
  // intern strings the dataset never held; no later load depends on them.
  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate("HOSP", 11);
  const auto load = [&](const std::string& bytes) {
    WriteFileBytes(mutated_path_, bytes);
    (void)snapshot::Verify(mutated_path_);
    (void)snapshot::Inspect(mutated_path_);
    return Configure(ds).FromSnapshot(mutated_path_).status();
  };
  ASSERT_TRUE(load(good).ok());

  std::mt19937 rng(0x5eed);
  // The string-table mutants draw from their own seed, so the others stay
  // the mutants they were before memo sections had string tables.
  std::mt19937 table_rng(0x7ab1e);
  int loads = 0;
  int refused = 0;
  int in_tables = 0;
  for (const SectionAt& section : Sections(good)) {
    const bool matcher = section.header.id ==
                         static_cast<uint32_t>(snapshot::SectionId::kMatcher);
    const bool memos = section.header.id ==
                       static_cast<uint32_t>(snapshot::SectionId::kMemos);
    if (!matcher && !memos) continue;
    const size_t length = static_cast<size_t>(section.header.length);
    // An equality matcher's section is its master size and kind byte.
    ASSERT_GE(length, 5u);
    std::vector<std::pair<std::string, std::string>> mutants;
    for (int i = 0; i < 12; ++i) {
      const size_t width = 1 + rng() % 4;
      const size_t at = rng() % (length - width + 1);
      std::string bytes = good;
      for (size_t k = 0; k < width; ++k) {
        bytes[section.payload() + at + k] = static_cast<char>(rng() & 0xFF);
      }
      mutants.emplace_back("overwrite " + std::to_string(width) + " at " +
                               std::to_string(at),
                           std::move(bytes));
    }
    for (size_t cut = 1; cut <= std::min<size_t>(8, length); ++cut) {
      std::string bytes = good;
      bytes.erase(section.payload() + length - cut, cut);
      PatchU32(&bytes, section.offset + 8,
               static_cast<uint32_t>(length - cut));
      mutants.emplace_back("truncate " + std::to_string(cut),
                           std::move(bytes));
    }
    if (memos) {
      // The table's count, string lengths and characters.
      const size_t table = StringTableEnd(good, section) - section.payload();
      ASSERT_GT(table, 4u) << "memo section of rule " << section.header.rule_id
                           << " names no string";
      for (int i = 0; i < 8; ++i) {
        const size_t width = 1 + table_rng() % 4;
        const size_t at = table_rng() % (table - width + 1);
        std::string bytes = good;
        for (size_t k = 0; k < width; ++k) {
          bytes[section.payload() + at + k] =
              static_cast<char>(table_rng() & 0xFF);
        }
        mutants.emplace_back("string table: overwrite " +
                                 std::to_string(width) + " at " +
                                 std::to_string(at),
                             std::move(bytes));
        ++in_tables;
      }
    }
    for (auto& [what, bytes] : mutants) {
      ResealSection(&bytes, section);
      const Status s = load(bytes);
      EXPECT_TRUE(s.ok() || s.code() == StatusCode::kDataLoss)
          << (matcher ? "matcher" : "memo") << " section of rule "
          << section.header.rule_id << ", " << what << ": " << s.ToString();
      ++loads;
      if (!s.ok()) ++refused;
    }
  }
  // HOSP: two equality matchers (5-byte sections: 12 overwrites and 5
  // cuts each), one suffix-array matcher and 3 memo sections (20 each),
  // plus 8 string-table overwrites per memo section.
  EXPECT_EQ(loads, 2 * 17 + 4 * 20 + 3 * 8);
  EXPECT_EQ(in_tables, 3 * 8);
  EXPECT_GT(refused, 0);
}

TEST_F(SnapshotHardening, MemoKeysOutsideTheirStringTableAreDataLoss) {
  // A memo key names its value by an index into its section's string
  // table. An index past the table, or a table count the section cannot
  // hold, behind re-sealed CRCs, is refused.
  const std::string path = Path("memos");
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    RunJournal(*engine, ds);
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path).ok());
  }
  const std::string good = ReadFileBytes(path);
  const SectionAt section = FirstSection(good, snapshot::SectionId::kMemos);
  const uint32_t strings = ReadU32(good, section.payload());
  ASSERT_GT(strings, 0u);
  // After the table: u64 blocking count | entries, each opening with its
  // key's index, then u64 match count | entries, each opening with u8
  // parts and the first part's index.
  const size_t table_end = StringTableEnd(good, section);
  size_t first_key = table_end + 8;
  if (ReadU32(good, table_end) == 0) {
    ASSERT_GT(ReadU32(good, table_end + 8), 0u) << "memo section is empty";
    first_key = table_end + 8 + 8 + 1;
  }
  std::string bytes = good;
  PatchU32(&bytes, first_key, strings);
  ResealSection(&bytes, section);
  Status s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("names no string of its table"),
            std::string::npos)
      << s.ToString();

  bytes = good;
  PatchU32(&bytes, section.payload(), 0xFFFFFFFFu);
  ResealSection(&bytes, section);
  s = TryLoadBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("string table count exceeds its section"),
            std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace uniclean
