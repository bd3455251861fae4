// src/snapshot/ contract tests.
//
// Two halves:
//  1. Round-trip parity — an engine warm-started with
//     EngineBuilder::FromSnapshot must be observationally identical to the
//     cold-built engine the snapshot came from: byte-identical CLEAN and
//     DELTA journals on HOSP/DBLP/TPCH, zero MdMatcher constructions during
//     the load, memo contents carried across when asked for.
//  2. Hostile-file hardening — truncations, bit flips, forged lengths, wrong
//     magic, future versions, a forged suffix array behind a valid CRC and
//     configuration mismatches must surface as the structured codes
//     snapshot.h promises (kDataLoss vs kFailedPrecondition vs kNotFound),
//     never an abort or a half-restored engine.
//
// Both halves run under ScopedStringPool so each cold/warm run replays the
// same deterministic intern sequence a fresh process would.

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "data/csv.h"
#include "data/relation.h"
#include "data/string_pool.h"
#include "gen/dataset.h"
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

/// Re-seals the 64-byte header after a deliberate field edit, so the test
/// exercises the *semantic* check behind the CRC rather than the CRC itself.
void ResealHeader(std::string* bytes) {
  PatchU32(bytes, snapshot::kHeaderBytes - 4,
           snapshot::Crc32(bytes->data(), snapshot::kHeaderBytes - 4));
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

// ---------------------------------------------------------------------------
// Round-trip parity
// ---------------------------------------------------------------------------

class SnapshotParity
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {
 protected:
  std::string Name() const { return std::get<0>(GetParam()); }
  uint64_t Seed() const { return std::get<1>(GetParam()); }
  std::string Path(const char* tag) const {
    return ::testing::TempDir() + "ucsnap_" + Name() + "_" +
           std::to_string(Seed()) + "_" + tag + ".ucsnap";
  }
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
    return ::testing::TempDir() + std::string("ucsnap_hosp_") + tag +
           ".ucsnap";
  }
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
    EXPECT_NE(info->header.flags & snapshot::kFlagHasMemos, 0u);
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
    EXPECT_EQ(info->header.flags & snapshot::kFlagHasMemos, 0u);
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
  EXPECT_GT(info->header.pool_count, 0u);
  EXPECT_EQ(info->header.section_count, info->sections.size());
  EXPECT_GT(info->file_bytes, snapshot::kHeaderBytes);
  int pools = 0;
  int environments = 0;
  int matchers = 0;
  for (const auto& section : info->sections) {
    if (section.id == static_cast<uint32_t>(snapshot::SectionId::kStringPool))
      ++pools;
    if (section.id == static_cast<uint32_t>(snapshot::SectionId::kEnvironment))
      ++environments;
    if (section.id == static_cast<uint32_t>(snapshot::SectionId::kMatcher)) {
      EXPECT_NE(section.rule_id, snapshot::kNoRule);
      ++matchers;
    }
  }
  EXPECT_EQ(pools, 1);
  EXPECT_EQ(environments, 1);
  EXPECT_EQ(matchers, num_matchers);
}

// ---------------------------------------------------------------------------
// Hostile files and configuration mismatches
// ---------------------------------------------------------------------------

class SnapshotHardening : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each discovered test as its own process in parallel; the
    // pid suffix keeps concurrent hardening tests off each other's files.
    const std::string pid = std::to_string(static_cast<long>(::getpid()));
    path_ = ::testing::TempDir() + "ucsnap_hardening_" + pid + ".ucsnap";
    mutated_path_ =
        ::testing::TempDir() + "ucsnap_hardening_mut_" + pid + ".ucsnap";
    master_path_ = ::testing::TempDir() + "ucsnap_hardening_master_" + pid +
                   ".csv";
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    data_schema_ = ds.dirty.schema_ptr();
    rule_text_ = ds.rule_text;
    ASSERT_TRUE(data::WriteCsvFile(master_path_, ds.master).ok());
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

  /// Attempts a warm start of `path` under the standard configuration;
  /// `junk` pre-interned strings shift every id the generator would mint.
  /// Also drives Verify() and Inspect() over the same file — hostile bytes
  /// must never crash any entry point.
  Status TryLoad(const std::string& path, int junk = 0, double eta = 1.0,
                 core::MdMatcherOptions matcher = {}) {
    snapshot::Verify(path).ok();                 // must not crash
    auto info = snapshot::Inspect(path);         // must not crash
    (void)info;
    data::ScopedStringPool scoped;
    for (int i = 0; i < junk; ++i) {
      scoped.pool().Intern("junk-" + std::to_string(i));
    }
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds, eta, matcher).FromSnapshot(path);
    return engine.status();
  }

  Status TryLoadBytes(const std::string& bytes) {
    WriteFileBytes(mutated_path_, bytes);
    return TryLoad(mutated_path_);
  }

  /// Attempts a warm start of `bytes` the way a daemon's cold start does:
  /// the master CSV and the rule text are read only after the pool section.
  /// Into a fresh pool (the caller installs one), the section's strings go
  /// through StringPool::TryInternBatch.
  Status TryLoadFromFiles(const std::string& bytes) {
    WriteFileBytes(mutated_path_, bytes);
    EngineBuilder builder;
    builder.WithDataSchema(data_schema_)
        .WithMasterCsv(master_path_)
        .WithRuleText(rule_text_)
        .WithEta(1.0);
    return builder.FromSnapshot(mutated_path_).status();
  }

  /// good_ with the first section of kind `id` re-filed under
  /// non_owner_rule_. Section headers carry no CRC, so nothing is re-sealed.
  std::string RefiledUnderNonOwner(snapshot::SectionId id) const {
    std::string bytes = good_;
    const SectionAt section = FirstSection(bytes, id);
    PatchU32(&bytes, section.offset + 4, non_owner_rule_);
    return bytes;
  }

  std::string path_;
  std::string mutated_path_;
  std::string master_path_;
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
  const Status s = TryLoad(::testing::TempDir() + "ucsnap_does_not_exist");
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
      57,                                              // header: section count
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
  const Status s = TryLoad(path_, /*junk=*/0, /*eta=*/0.5);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
}

TEST_F(SnapshotHardening, MatcherOptionMismatchIsFailedPrecondition) {
  core::MdMatcherOptions matcher;
  matcher.memo_capacity = 7777;
  const Status s = TryLoad(path_, /*junk=*/0, /*eta=*/1.0, matcher);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
}

TEST_F(SnapshotHardening, DivergedStringPoolIsFailedPrecondition) {
  // Junk interned before the load permutes every id the generator mints, so
  // the snapshot's pool prefix no longer matches the live pool.
  const Status s = TryLoad(path_, /*junk=*/500);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
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
  auto info = snapshot::Inspect(path_);
  ASSERT_TRUE(info.ok());
  PatchU32(&bytes, 56, info->header.section_count + 1);
  ResealHeader(&bytes);
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
  const auto read_u32 = [](const std::string& bytes, size_t offset) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + i]))
           << (8 * i);
    }
    return v;
  };
  const uint32_t n = read_u32(good_, length_offset);
  ASSERT_GT(n, 2u);
  const size_t mid = entries + 4 * (n / 2);

  // Each mutation keeps the payload length; the section CRC and the header
  // are re-sealed so the bytes reach the codec's suffix-order check.
  const std::vector<std::pair<const char*, std::function<void(std::string*)>>>
      mutations = {
          {"swap two adjacent entries",
           [&](std::string* b) {
             const uint32_t a = read_u32(*b, mid);
             PatchU32(b, mid, read_u32(*b, mid + 4));
             PatchU32(b, mid + 4, a);
           }},
          {"duplicate an entry",
           [&](std::string* b) { PatchU32(b, mid + 4, read_u32(*b, mid)); }},
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
  auto info = snapshot::Inspect(path_);
  ASSERT_TRUE(info.ok());
  PatchU32(&bytes, 56, info->header.section_count - 1);
  ResealHeader(&bytes);
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
  const auto read_u32 = [](const std::string& bytes, size_t offset) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[offset + i]))
           << (8 * i);
    }
    return v;
  };
  int matchers = 0;
  for (const SectionAt& section : Sections(good_)) {
    if (section.header.id !=
        static_cast<uint32_t>(snapshot::SectionId::kMatcher)) {
      continue;
    }
    ++matchers;
    EXPECT_EQ(read_u32(good_, section.payload()), master_size)
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
  // seeded 1-4-byte overwrites and 1-8-byte truncations (length patched),
  // then re-sealed, so the bytes reach the decoders. Each load must return
  // a Status — OK or DataLoss, since only codec payloads change — and never
  // abort or trip a sanitizer.
  const std::string path = ::testing::TempDir() + "ucsnap_mutation_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".ucsnap";
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
  // One pool and one dataset serve every load: the pool section is never
  // mutated, so each load re-finds the same prefix.
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
  int loads = 0;
  int refused = 0;
  for (const SectionAt& section : Sections(good)) {
    const bool matcher = section.header.id ==
                         static_cast<uint32_t>(snapshot::SectionId::kMatcher);
    const bool memos = section.header.id ==
                       static_cast<uint32_t>(snapshot::SectionId::kMemos);
    if (!matcher && !memos) continue;
    const size_t length = static_cast<size_t>(section.header.length);
    ASSERT_GT(length, 8u);
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
    for (size_t cut = 1; cut <= 8; ++cut) {
      std::string bytes = good;
      bytes.erase(section.payload() + length - cut, cut);
      PatchU32(&bytes, section.offset + 8,
               static_cast<uint32_t>(length - cut));
      mutants.emplace_back("truncate " + std::to_string(cut),
                           std::move(bytes));
    }
    for (auto& [what, bytes] : mutants) {
      const uint64_t mutated_length =
          snapshot::DecodeSectionHeader(bytes, section.offset)->length;
      PatchU32(&bytes, section.offset + 16,
               snapshot::Crc32(bytes.data() + section.payload(),
                               static_cast<size_t>(mutated_length)));
      ResealHeader(&bytes);
      const Status s = load(bytes);
      EXPECT_TRUE(s.ok() || s.code() == StatusCode::kDataLoss)
          << (matcher ? "matcher" : "memo") << " section of rule "
          << section.header.rule_id << ", " << what << ": " << s.ToString();
      ++loads;
      if (!s.ok()) ++refused;
    }
  }
  EXPECT_EQ(loads, 6 * 20);  // HOSP: 3 matcher + 3 memo sections
  EXPECT_GT(refused, 0);
}

/// The strings of a pool-section payload, or nothing when the payload does
/// not parse.
std::optional<std::vector<std::string_view>> PoolStrings(
    std::string_view payload) {
  snapshot::Reader r(payload);
  auto count = r.U64();
  if (!count.ok() || *count > payload.size()) return std::nullopt;
  std::vector<std::string_view> strings;
  for (uint64_t i = 0; i < *count; ++i) {
    auto s = r.Bytes();
    if (!s.ok()) return std::nullopt;
    strings.push_back(*s);
  }
  if (!r.done()) return std::nullopt;
  return strings;
}

/// StringPool::PrefixHash over `strings`, in order.
uint64_t PoolHash(const std::vector<std::string_view>& strings) {
  uint64_t hash = 0x243f6a8885a308d3ULL;
  for (std::string_view s : strings) {
    hash = data::MixU64(hash ^ s.size());
    for (char c : s) {
      hash = data::MixU64(hash ^ static_cast<uint64_t>(
                                     static_cast<uint8_t>(c)));
    }
  }
  return hash;
}

/// The string count and StringPool::PrefixHash of a pool-section payload,
/// or nothing when the payload does not parse.
std::optional<std::pair<uint64_t, uint64_t>> PoolCountAndHash(
    std::string_view payload) {
  const auto strings = PoolStrings(payload);
  if (!strings.has_value()) return std::nullopt;
  return std::make_pair(static_cast<uint64_t>(strings->size()),
                        PoolHash(*strings));
}

/// Sets the header's pool generation (bytes 40 and 48: the string count and
/// StringPool::PrefixHash) and re-seals the header.
void SetPoolGeneration(std::string* bytes, uint64_t count, uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[40 + static_cast<size_t>(i)] =
        static_cast<char>((count >> (8 * i)) & 0xFF);
    (*bytes)[48 + static_cast<size_t>(i)] =
        static_cast<char>((hash >> (8 * i)) & 0xFF);
  }
  ResealHeader(bytes);
}

/// `bytes` with its pool section re-encoded to hold `strings`: the section's
/// length and CRC and the header's pool generation re-derived, so the
/// strings reach the loader past every check of the container.
std::string WithPoolStrings(const std::string& bytes,
                            const std::vector<std::string>& strings) {
  const SectionAt section =
      FirstSection(bytes, snapshot::SectionId::kStringPool);
  std::string payload;
  snapshot::PutU64(&payload, strings.size());
  for (const std::string& s : strings) snapshot::PutBytes(&payload, s);
  std::string out = bytes.substr(0, section.offset);
  snapshot::SectionHeader header = section.header;
  header.length = payload.size();
  header.crc = snapshot::Crc32(payload);
  snapshot::EncodeSectionHeader(header, &out);
  out += payload;
  out += bytes.substr(section.payload() +
                      static_cast<size_t>(section.header.length));
  const std::vector<std::string_view> views(strings.begin(), strings.end());
  SetPoolGeneration(&out, strings.size(), PoolHash(views));
  return out;
}

TEST_F(SnapshotHardening,
       RepeatedPoolStringIsDataLossBeforeAnythingIsInterned) {
  // Pool string 100 set to string 50, behind a re-derived count and hash
  // and re-sealed CRCs. Interned into a fresh pool, the repeat used to mint
  // one id too few: the load failed only at the id check ("grew
  // concurrently"), left about 1,700 strings in the pool, and a good file
  // then failed in the same pool ("diverged ... at id 100").
  const SectionAt section =
      FirstSection(good_, snapshot::SectionId::kStringPool);
  const auto views = PoolStrings(std::string_view(good_).substr(
      section.payload(), static_cast<size_t>(section.header.length)));
  ASSERT_TRUE(views.has_value());
  ASSERT_GT(views->size(), 100u);
  std::vector<std::string> strings(views->begin(), views->end());
  strings[100] = strings[50];
  const std::string bytes = WithPoolStrings(good_, strings);
  WriteFileBytes(mutated_path_, bytes);
  const Status verified = snapshot::Verify(mutated_path_);
  EXPECT_EQ(verified.code(), StatusCode::kDataLoss) << verified.ToString();

  data::ScopedStringPool fresh;
  const Status s = TryLoadFromFiles(bytes);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("repeats a string at id 100"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(fresh.pool().size(), 1u);
  const Status good = TryLoadFromFiles(good_);
  EXPECT_TRUE(good.ok()) << good.ToString();
  EXPECT_EQ(fresh.pool().size(), views->size());
}

TEST_F(SnapshotHardening, SeededPoolMutationsBehindValidCrcsReturnAStatus) {
  // The string-pool section, mutated by seeded 1-4-byte overwrites and
  // 1-8-byte truncations and re-sealed. Each mutant loads twice: once with
  // only the section CRC re-sealed (the pool decoder sees the bytes), and,
  // when the payload still parses, once more with the header's pool count
  // and hash re-derived from it, so the strings reach the live-pool prefix
  // check. The re-derived mutant also loads into a fresh pool, as a
  // daemon's cold start would, so its strings go through
  // StringPool::TryInternBatch into the pool's index. Every load must
  // return a Status and never abort.
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
  const std::string path =
      ::testing::TempDir() + "ucsnap_pool_mutation_" + pid + ".ucsnap";
  {
    data::ScopedStringPool scoped;
    gen::Dataset ds = Generate("HOSP", 11);
    auto engine = Configure(ds).BuildEngine();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    RunJournal(*engine, ds);
    ASSERT_TRUE(snapshot::WriteSnapshot(**engine, path).ok());
  }
  const std::string good = ReadFileBytes(path);
  // Mutated strings never enter the pool: the live prefix (the dataset's
  // strings) covers the whole section, so a changed string is refused at
  // the prefix check before anything is interned.
  data::ScopedStringPool scoped;
  gen::Dataset ds = Generate("HOSP", 11);
  const auto load = [&](const std::string& bytes) {
    WriteFileBytes(mutated_path_, bytes);
    (void)snapshot::Verify(mutated_path_);
    (void)snapshot::Inspect(mutated_path_);
    return Configure(ds).FromSnapshot(mutated_path_).status();
  };
  ASSERT_TRUE(load(good).ok());

  const SectionAt section =
      FirstSection(good, snapshot::SectionId::kStringPool);
  const size_t length = static_cast<size_t>(section.header.length);
  ASSERT_GT(length, 8u);
  std::vector<std::pair<std::string, std::string>> mutants;
  std::mt19937 rng(0x9001);
  for (int i = 0; i < 24; ++i) {
    const size_t width = 1 + rng() % 4;
    const size_t at = rng() % (length - width + 1);
    std::string bytes = good;
    for (size_t k = 0; k < width; ++k) {
      bytes[section.payload() + at + k] = static_cast<char>(rng() & 0xFF);
    }
    mutants.emplace_back(
        "overwrite " + std::to_string(width) + " at " + std::to_string(at),
        std::move(bytes));
  }
  for (size_t cut = 1; cut <= 8; ++cut) {
    std::string bytes = good;
    bytes.erase(section.payload() + length - cut, cut);
    PatchU32(&bytes, section.offset + 8, static_cast<uint32_t>(length - cut));
    mutants.emplace_back("truncate " + std::to_string(cut), std::move(bytes));
  }
  int loads = 0;
  int prefix_checked = 0;
  int interned = 0;  // fresh-pool loads whose strings reached the pool
  for (auto& [what, bytes] : mutants) {
    const size_t mutated_length = static_cast<size_t>(
        snapshot::DecodeSectionHeader(bytes, section.offset)->length);
    const std::string_view payload(bytes.data() + section.payload(),
                                   mutated_length);
    PatchU32(&bytes, section.offset + 16, snapshot::Crc32(payload));
    const Status s = load(bytes);
    EXPECT_TRUE(s.ok() || s.code() == StatusCode::kDataLoss)
        << what << ": " << s.ToString();
    ++loads;
    const auto count_and_hash = PoolCountAndHash(payload);
    if (!count_and_hash.has_value()) continue;
    std::string resealed = bytes;
    SetPoolGeneration(&resealed, count_and_hash->first,
                      count_and_hash->second);
    const Status deep = load(resealed);
    EXPECT_TRUE(deep.ok() || deep.code() == StatusCode::kDataLoss ||
                deep.code() == StatusCode::kFailedPrecondition)
        << what << ", header re-derived: " << deep.ToString();
    ++loads;
    if (deep.code() == StatusCode::kFailedPrecondition) ++prefix_checked;
    {
      data::ScopedStringPool fresh;
      const Status cold = TryLoadFromFiles(resealed);
      EXPECT_TRUE(cold.ok() || cold.code() == StatusCode::kDataLoss ||
                  cold.code() == StatusCode::kFailedPrecondition)
          << what << ", into a fresh pool: " << cold.ToString();
      ++loads;
      if (fresh.pool().size() > 1) ++interned;
    }
  }
  EXPECT_GE(loads, 32);
  EXPECT_GT(prefix_checked, 0);
  EXPECT_GT(interned, 0);
  // The live pool is as the good load left it.
  EXPECT_TRUE(load(good).ok());
}

}  // namespace
}  // namespace uniclean
