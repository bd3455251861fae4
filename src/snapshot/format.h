// The uniclean snapshot container format (".ucsnap"): the byte-level half
// of src/snapshot/. A snapshot is one file:
//
//   header (28 bytes, CRC-protected)
//     0   8   magic "UCSNAPSH"
//     8   u32 format version (kFormatVersion)
//     12  u64 CleanEngine::Fingerprint() of the writing engine: the file's
//             one configuration check (rules, master, thresholds,
//             use_blocking)
//     20  u32 section count
//     24  u32 CRC-32C of bytes [0, 24)
//   sections, back to back, each:
//     u32 section id (SectionId)
//     u32 rule id the section belongs to, or kNoRule
//     u64 payload length
//     u32 CRC-32C of the payload
//     payload bytes
//
// All integers are little-endian. Every multi-byte value inside a payload
// goes through the Put*/Reader helpers here, and every read is
// bounds-checked: a truncated, bit-flipped or length-forged file yields a
// structured Status::DataLoss, never an out-of-bounds access or an abort —
// the loader hardening contract tested by snapshot_test's corruption
// matrix. Payload layouts live in codec.h; policy (what gets refused when)
// in snapshot.h.

#ifndef UNICLEAN_SNAPSHOT_FORMAT_H_
#define UNICLEAN_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/result.h"

namespace uniclean {
namespace snapshot {

inline constexpr char kMagic[8] = {'U', 'C', 'S', 'N', 'A', 'P', 'S', 'H'};
/// Version 6 persists one matcher (and one memo section) per distinct MD
/// premise, filed under the lowest rule id with that premise; a blocking
/// index is its suffix order, an equality index is re-derived from the
/// master, and a memo section holds blocking candidates and match lists
/// whose keys name their values through the section's own string table
/// (codec.h), so a file loads into a process whatever it interned before.
/// Its header carries no matcher options (the engine fingerprint covers
/// what decides a match list) and no string-pool state. Files of earlier
/// versions — v5 (a 44-byte header with a string-pool generation, and a
/// pool section whose ids the memo keys held), v4 (a header with matcher
/// options and persisted equality indexes), v3 (memo sections that also
/// held per-clause similarity outcomes), v2 (one matcher per MD rule) and
/// v1 (suffix-tree nodes) — are refused like any other version.
inline constexpr uint32_t kFormatVersion = 6;
inline constexpr size_t kHeaderBytes = 28;
inline constexpr size_t kSectionHeaderBytes = 20;

/// Section ids. A reader skips unknown ids (forward compatibility: a newer
/// writer may append new section kinds), but unknown *required* state can
/// only be added with a version bump. Id 1 held the string pool through v5.
enum class SectionId : uint32_t {
  kEnvironment = 2,  // one per file: environment-level counts
  kMatcher = 3,      // one per distinct MD premise, under its owner rule id
  kMemos = 4,        // optional, at most one per kMatcher section
};

/// `rule_id` value for sections not owned by a rule.
inline constexpr uint32_t kNoRule = 0xFFFFFFFFu;

/// CRC-32C (Castagnoli polynomial, reflected) of `n` bytes. Chosen over the
/// IEEE polynomial because SSE4.2 computes it in hardware, and a warm start
/// checksums the whole file.
uint32_t Crc32(const void* data, size_t n);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

// --- little-endian appenders ------------------------------------------------

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
/// u32 length + raw bytes.
inline void PutBytes(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

// --- header -----------------------------------------------------------------

struct Header {
  uint32_t version = kFormatVersion;
  uint64_t engine_fingerprint = 0;
  uint32_t section_count = 0;
};

/// Appends the encoded 28-byte header (with its CRC) to `out`.
void EncodeHeader(const Header& header, std::string* out);

/// Decodes and validates the header at the start of `file`: size, magic
/// (kDataLoss), then version (kFailedPrecondition when the header is sealed
/// by its CRC, as this format, as the 44-byte header of v5 or as the
/// 64-byte header of v1-v4 — the file may be fine, this build just cannot
/// read it), then the header CRC (kDataLoss).
Result<Header> DecodeHeader(std::string_view file);

// --- sections ---------------------------------------------------------------

struct SectionHeader {
  uint32_t id = 0;
  uint32_t rule_id = kNoRule;
  uint64_t length = 0;
  uint32_t crc = 0;
};

/// Appends the 20-byte section header to `out`.
void EncodeSectionHeader(const SectionHeader& section, std::string* out);

/// Decodes the section header at `file[offset...]`; kDataLoss when fewer
/// than kSectionHeaderBytes remain.
Result<SectionHeader> DecodeSectionHeader(std::string_view file,
                                          size_t offset);

// --- bounds-checked payload reader ------------------------------------------

/// Little-endian cursor over a section payload. Every accessor fails with
/// Status::DataLoss instead of reading past the end, so hostile declared
/// lengths inside a payload cannot walk out of the buffer.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  Result<uint8_t> U8() {
    if (remaining() < 1) return Truncated("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> U32() {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  /// u32 length + raw bytes; the view aliases the payload buffer.
  Result<std::string_view> Bytes() {
    UC_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (remaining() < n) return Truncated("byte run");
    std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  /// `n` raw payload bytes, advanced past in one bounds check — the bulk
  /// entry point for the flat-array codec paths, where a Result per 4-byte
  /// read would dominate the restore cost.
  Result<const char*> Raw(size_t n) {
    if (remaining() < n) return Truncated("raw block");
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

 private:
  Status Truncated(const char* what) const {
    return Status::DataLoss(std::string("snapshot payload truncated reading ") +
                            what + " at offset " + std::to_string(pos_));
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace snapshot
}  // namespace uniclean

#endif  // UNICLEAN_SNAPSHOT_FORMAT_H_
