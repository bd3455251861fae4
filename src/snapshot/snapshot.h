// src/snapshot/: persistent, versioned engine snapshots for warm starts.
//
// A CleanEngine's startup cost is dominated by the §5.2 index build (one
// suffix array / equality index per distinct MD premise over the master
// relation) plus the memo warm-up a serving process accumulates. A snapshot
// serializes exactly that warm half — every suffix-array matcher's suffix
// order and optionally the hot memo contents, whose keys name their values
// by string — into one checksummed file, so a restarted daemon loads
// indexes in milliseconds instead of rebuilding them (unicleand
// --snapshot-dir) and journals stay byte-identical to a cold-built
// engine's. No interned id is persisted, so a file loads into any process
// whatever it interned before: replicas and rulesets can share one
// snapshot dir.
//
// File layout and integrity checking live in format.h; payload
// (de)serialization in codec.h; this header is the policy layer: what gets
// written, and what mismatch refuses a load with which status code:
//
//   kDataLoss            — the file cannot be trusted: bad magic, CRC
//                          mismatch, truncation, forged lengths, indices
//                          out of range. Discard the file and cold-build.
//   kFailedPrecondition  — the file may be fine but does not belong to this
//                          build or configuration: unsupported format
//                          version, engine fingerprint mismatch (a rule's
//                          content, the master, a threshold or use_blocking
//                          changed — CleanEngine::Fingerprint, the one
//                          configuration check). Cold-build; overwrite the
//                          snapshot.
//
// Options that change no match list (phase selection, use_memos,
// memo_capacity) are outside the fingerprint, so a file loads across them;
// a memo restored under a smaller memo_capacity keeps the entries that fit.
//
// Loads never abort and never return a half-restored engine: every failure
// path surfaces before EngineBuilder::FromSnapshot hands out the engine.

#ifndef UNICLEAN_SNAPSHOT_SNAPSHOT_H_
#define UNICLEAN_SNAPSHOT_SNAPSHOT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "snapshot/format.h"

namespace uniclean {

class CleanEngine;

namespace snapshot {

struct SnapshotWriteOptions {
  /// Also persist the memo contents (match lists and blocking candidates)
  /// so a restarted server begins with the hit rates the previous process
  /// earned.
  bool include_memos = true;
};

/// What Inspect() reports about a snapshot file without restoring it.
struct SnapshotInfo {
  Header header;
  std::vector<SectionHeader> sections;
  uint64_t file_bytes = 0;
};

/// Serializes `engine`'s warm state to `path`. Calls Warmup() first (the
/// environment must exist to be persisted); the caller should otherwise
/// quiesce the engine — concurrent sessions are safe but memo entries
/// admitted during the write may or may not be captured. The file is
/// written to a temporary sibling of its own and atomically renamed into
/// place, so a concurrent reader never observes a torn snapshot, and of
/// concurrent writers of one path the last rename wins whole. Non-memo
/// sections are byte-deterministic: two writes of the same warm engine
/// produce identical files with include_memos = false.
Status WriteSnapshot(const CleanEngine& engine, const std::string& path,
                     const SnapshotWriteOptions& options = {});

/// Decodes the header and walks the section table (bounds-checked, payload
/// CRCs not verified). The cheap "what is this file" query behind the
/// uniclean_snapshot CLI's `inspect`.
Result<SnapshotInfo> Inspect(const std::string& path);

/// Full container validation: header CRC, section table structure, every
/// payload CRC and the required environment section. Does not need (and
/// cannot check against) an engine; codec-level consistency is only
/// checkable at FromSnapshot time. OK means the bytes are intact.
Status Verify(const std::string& path);

}  // namespace snapshot
}  // namespace uniclean

#endif  // UNICLEAN_SNAPSHOT_SNAPSHOT_H_
