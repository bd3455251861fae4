#include "snapshot/snapshot.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define UNICLEAN_SNAPSHOT_HAS_MMAP 1
#endif

#include "snapshot/codec.h"
#include "uniclean/engine.h"

namespace uniclean {
namespace snapshot {

namespace {

/// The bytes of a snapshot file, either memory-mapped (preferred: the
/// restore path reads every byte exactly once for the CRC sweep and then
/// bulk-copies slices, so a map avoids materialising a second 20+ MB copy)
/// or owned when mapping is unavailable. Move-only RAII.
class FileContents {
 public:
  FileContents() = default;
  FileContents(FileContents&& o) noexcept { *this = std::move(o); }
  FileContents& operator=(FileContents&& o) noexcept {
    std::swap(owned_, o.owned_);
    std::swap(map_, o.map_);
    std::swap(map_len_, o.map_len_);
    return *this;
  }
  FileContents(const FileContents&) = delete;
  FileContents& operator=(const FileContents&) = delete;
  ~FileContents() {
#ifdef UNICLEAN_SNAPSHOT_HAS_MMAP
    if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  }

  std::string_view view() const {
    if (map_ != nullptr) {
      return std::string_view(static_cast<const char*>(map_), map_len_);
    }
    return owned_;
  }

  void adopt_map(void* map, size_t len) {
    map_ = map;
    map_len_ = len;
  }
  std::string* mutable_owned() { return &owned_; }

 private:
  std::string owned_;
  void* map_ = nullptr;
  size_t map_len_ = 0;
};

Result<FileContents> ReadFile(const std::string& path) {
  FileContents contents;
#ifdef UNICLEAN_SNAPSHOT_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open snapshot: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::DataLoss("cannot size snapshot: " + path);
  }
  if (st.st_size > 0) {
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    // Prefault in one kernel pass: the CRC sweep touches every page anyway,
    // and a bulk populate is cheaper than taking the faults one by one.
    flags |= MAP_POPULATE;
#endif
    void* map = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                       flags, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      return Status::DataLoss("cannot map snapshot: " + path);
    }
    contents.adopt_map(map, static_cast<size_t>(st.st_size));
  } else {
    ::close(fd);
  }
  return contents;
#else
  // stdio with one sized read: a snapshot is tens of MB and the
  // istreambuf_iterator path was a measured multiple of the whole parse
  // cost at that size.
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open snapshot: " + path);
  std::string* bytes = contents.mutable_owned();
  Status status = Status::OK();
  if (std::fseek(f, 0, SEEK_END) != 0) {
    status = Status::DataLoss("cannot seek snapshot: " + path);
  } else {
    const long size = std::ftell(f);
    if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
      status = Status::DataLoss("cannot size snapshot: " + path);
    } else {
      bytes->resize(static_cast<size_t>(size));
      if (size > 0 &&
          std::fread(&(*bytes)[0], 1, bytes->size(), f) != bytes->size()) {
        status = Status::DataLoss("read error on snapshot: " + path);
      }
    }
  }
  std::fclose(f);
  if (!status.ok()) return status;
  return contents;
#endif
}

/// A structurally validated snapshot: header decoded, section table walked
/// and bounds-checked, every payload CRC verified, required sections
/// present exactly once. Views alias the file buffer.
struct ParsedSnapshot {
  Header header;
  std::string_view environment;
  std::vector<RuleSection> matchers;
  std::vector<RuleSection> memos;
};

Result<ParsedSnapshot> ParseSnapshot(std::string_view file) {
  ParsedSnapshot snap;
  UC_ASSIGN_OR_RETURN(snap.header, DecodeHeader(file));
  bool have_env = false;
  size_t offset = kHeaderBytes;
  for (uint32_t i = 0; i < snap.header.section_count; ++i) {
    UC_ASSIGN_OR_RETURN(SectionHeader sh, DecodeSectionHeader(file, offset));
    offset += kSectionHeaderBytes;
    // The declared length is attacker-controlled until proven in bounds.
    if (sh.length > file.size() - offset) {
      return Status::DataLoss("snapshot section " + std::to_string(i) +
                              " declares " + std::to_string(sh.length) +
                              " bytes but only " +
                              std::to_string(file.size() - offset) +
                              " remain");
    }
    const std::string_view payload = file.substr(offset, sh.length);
    offset += sh.length;
    if (Crc32(payload) != sh.crc) {
      return Status::DataLoss("snapshot section " + std::to_string(i) +
                              " (id " + std::to_string(sh.id) +
                              ") failed its CRC check");
    }
    switch (static_cast<SectionId>(sh.id)) {
      case SectionId::kEnvironment:
        if (have_env || sh.rule_id != kNoRule) {
          return Status::DataLoss(
              "duplicate or rule-tagged environment section");
        }
        have_env = true;
        snap.environment = payload;
        break;
      case SectionId::kMatcher:
        if (sh.rule_id == kNoRule) {
          return Status::DataLoss("matcher section without a rule id");
        }
        snap.matchers.push_back({sh.rule_id, payload});
        break;
      case SectionId::kMemos:
        if (sh.rule_id == kNoRule) {
          return Status::DataLoss("memo section without a rule id");
        }
        snap.memos.push_back({sh.rule_id, payload});
        break;
      default:
        // Unknown section id: written by a newer writer of the same format
        // version; skippable by construction (required state needs a
        // version bump).
        break;
    }
  }
  if (offset != file.size()) {
    return Status::DataLoss("snapshot carries " +
                            std::to_string(file.size() - offset) +
                            " trailing bytes past the section table");
  }
  if (!have_env) {
    return Status::DataLoss("snapshot is missing its environment section");
  }
  return snap;
}

/// Writes `bytes` to a temp file beside `path` and renames it into place.
/// Each write gets its own temp name (pid and a per-process count), so
/// writers of one path — a daemon's replicas sharing a snapshot dir, or
/// threads of one process — never write into each other's file: each
/// rename installs one whole file.
Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  static std::atomic<uint64_t> writes{0};
#ifdef UNICLEAN_SNAPSHOT_HAS_MMAP
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const std::string tmp = path + ".tmp." + std::to_string(pid) + "." +
                          std::to_string(writes.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open " + tmp + " for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Internal("write failed on " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " into place");
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshot(const CleanEngine& engine, const std::string& path,
                     const SnapshotWriteOptions& options) {
  engine.Warmup();
  const core::MatchEnvironment& env = engine.environment();
  const bool write_memos =
      options.include_memos && engine.config().matcher.use_memos;
  Header header;
  header.engine_fingerprint = engine.Fingerprint();

  struct PendingSection {
    SectionId id;
    uint32_t rule_id;
    std::string payload;
  };
  std::vector<PendingSection> sections;

  PendingSection env_section{SectionId::kEnvironment, kNoRule, {}};
  Codec::AppendEnvironment(env, &env_section.payload);
  sections.push_back(std::move(env_section));

  // One matcher section (plus its memos) per distinct matcher, filed under
  // its owner: the lowest rule id with that premise, whose MD the matcher
  // holds (MdMatcher::md()). The loader re-derives which rules share it.
  const rules::RuleSet& rules = engine.rules();
  for (rules::RuleId rule = 0; rule < rules.num_rules(); ++rule) {
    if (rules.IsCfd(rule)) continue;
    const core::MdMatcher* matcher = env.matcher(rule);
    if (&matcher->md() != &rules.md(rule)) continue;
    PendingSection section{SectionId::kMatcher,
                           static_cast<uint32_t>(rule), {}};
    Codec::AppendMatcher(*matcher, &section.payload);
    sections.push_back(std::move(section));
    if (write_memos) {
      PendingSection memos{SectionId::kMemos, static_cast<uint32_t>(rule),
                           {}};
      Codec::AppendMemos(*matcher, &memos.payload);
      sections.push_back(std::move(memos));
    }
  }
  header.section_count = static_cast<uint32_t>(sections.size());

  std::string bytes;
  EncodeHeader(header, &bytes);
  for (const PendingSection& section : sections) {
    SectionHeader sh;
    sh.id = static_cast<uint32_t>(section.id);
    sh.rule_id = section.rule_id;
    sh.length = section.payload.size();
    sh.crc = Crc32(section.payload);
    EncodeSectionHeader(sh, &bytes);
    bytes.append(section.payload);
  }
  return WriteFileAtomic(path, bytes);
}

Result<SnapshotInfo> Inspect(const std::string& path) {
  UC_ASSIGN_OR_RETURN(FileContents contents, ReadFile(path));
  const std::string_view file = contents.view();
  SnapshotInfo info;
  info.file_bytes = file.size();
  UC_ASSIGN_OR_RETURN(info.header, DecodeHeader(file));
  size_t offset = kHeaderBytes;
  for (uint32_t i = 0; i < info.header.section_count; ++i) {
    UC_ASSIGN_OR_RETURN(SectionHeader sh, DecodeSectionHeader(file, offset));
    offset += kSectionHeaderBytes;
    if (sh.length > file.size() - offset) {
      return Status::DataLoss("snapshot section " + std::to_string(i) +
                              " overruns the file");
    }
    offset += sh.length;
    info.sections.push_back(sh);
  }
  return info;
}

Status Verify(const std::string& path) {
  UC_ASSIGN_OR_RETURN(FileContents contents, ReadFile(path));
  return ParseSnapshot(contents.view()).status();
}

}  // namespace snapshot

// Defined here rather than engine.cc so the core library does not depend on
// the snapshot library; only FromSnapshot callers link uniclean::snapshot.
Result<std::shared_ptr<CleanEngine>> EngineBuilder::FromSnapshot(
    const std::string& path) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  UC_ASSIGN_OR_RETURN(snapshot::FileContents file, snapshot::ReadFile(path));
  UC_ASSIGN_OR_RETURN(snapshot::ParsedSnapshot snap,
                      snapshot::ParseSnapshot(file.view()));
  UC_ASSIGN_OR_RETURN(std::shared_ptr<CleanEngine> engine, BuildEngine());
  const uint64_t fingerprint = engine->Fingerprint();
  if (fingerprint != snap.header.engine_fingerprint) {
    return Status::FailedPrecondition(
        "snapshot was written by a different engine (fingerprint " +
        std::to_string(snap.header.engine_fingerprint) + ", this engine " +
        std::to_string(fingerprint) +
        ") — rules, master data, thresholds or blocking changed");
  }
  UC_ASSIGN_OR_RETURN(std::unique_ptr<core::MatchEnvironment> env,
                      snapshot::Codec::RestoreEnvironment(
                          engine->rules(), engine->master(),
                          engine->config().matcher, snap.environment,
                          snap.matchers, snap.memos));
  engine->env_ = std::move(env);
  engine->snapshot_source_ = path;
  engine->snapshot_load_s_ =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return engine;
}

}  // namespace uniclean
