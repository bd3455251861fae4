#include "snapshot/format.h"

#include <array>

namespace uniclean {
namespace snapshot {

namespace {

// Slicing-by-8 tables for the Castagnoli polynomial: table[0] is the
// classic byte-at-a-time table, and table[k][b] is the CRC of byte b
// followed by k zero bytes, letting the software loop fold 8 input bytes
// per iteration. Every load-time section check CRCs the whole file, so
// this runs over tens of MB on a warm start; the one-byte-per-iteration
// form was a measured double-digit-ms cost there.
std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (int t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFF] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

uint32_t Crc32Software(const void* data, size_t n, uint32_t crc) {
  static const std::array<std::array<uint32_t, 256>, 8> kTables =
      MakeCrcTables();
  const auto* p = static_cast<const uint8_t*>(data);
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    lo = __builtin_bswap32(lo);
    hi = __builtin_bswap32(hi);
#endif
    lo ^= crc;
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (size_t i = 0; i < n; ++i) {
    crc = kTables[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UNICLEAN_CRC32C_HW 1
// The SSE4.2 crc32 instruction implements exactly this polynomial — the
// reason the format uses Castagnoli. Compiled with a target attribute and
// dispatched at runtime so the binary still runs on pre-Nehalem CPUs.
__attribute__((target("sse4.2"))) uint32_t Crc32Hardware(const void* data,
                                                         size_t n,
                                                         uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = __builtin_ia32_crc32di(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (size_t i = 0; i < n; ++i) {
    c32 = __builtin_ia32_crc32qi(c32, p[i]);
  }
  return c32;
}
#endif

/// Header lengths of earlier formats, each sealed by a CRC in its last 4
/// bytes: v5's 44 (which held a string-pool generation) and v1-v4's 64.
constexpr size_t kV5HeaderBytes = 44;
constexpr size_t kV4HeaderBytes = 64;

/// Whether the first `n` bytes of `file` end in the CRC of the rest.
bool SealedAs(std::string_view file, size_t n) {
  if (file.size() < n) return false;
  Reader r(file.substr(n - 4, 4));
  return r.U32().value() == Crc32(file.data(), n - 4);
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
#ifdef UNICLEAN_CRC32C_HW
  static const bool kHaveHardware = __builtin_cpu_supports("sse4.2");
  if (kHaveHardware) {
    return Crc32Hardware(data, n, 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
  }
#endif
  return Crc32Software(data, n, 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

void EncodeHeader(const Header& header, std::string* out) {
  const size_t base = out->size();
  out->append(kMagic, sizeof(kMagic));
  PutU32(out, header.version);
  PutU64(out, header.engine_fingerprint);
  PutU32(out, header.section_count);
  PutU32(out, Crc32(out->data() + base, kHeaderBytes - 4));
}

Result<Header> DecodeHeader(std::string_view file) {
  if (file.size() < kHeaderBytes) {
    return Status::DataLoss("snapshot too small for a header (" +
                            std::to_string(file.size()) + " bytes)");
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("not a uniclean snapshot (bad magic)");
  }
  Reader r(file.substr(sizeof(kMagic), kHeaderBytes - sizeof(kMagic)));
  Header h;
  UC_ASSIGN_OR_RETURN(h.version, r.U32());
  UC_ASSIGN_OR_RETURN(h.engine_fingerprint, r.U64());
  UC_ASSIGN_OR_RETURN(h.section_count, r.U32());
  // The version word sits at offset 8 in every format, but earlier formats
  // sealed longer headers. A header intact under any of the seals that
  // names another version may be a fine file this build cannot read; one
  // intact under none is corruption, even when the flipped bit is in the
  // version.
  const bool sealed = SealedAs(file, kHeaderBytes);
  const bool sealed_as_old =
      SealedAs(file, kV5HeaderBytes) || SealedAs(file, kV4HeaderBytes);
  if (h.version != kFormatVersion && (sealed || sealed_as_old)) {
    return Status::FailedPrecondition(
        "snapshot format version " + std::to_string(h.version) +
        " is not supported (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  }
  if (!sealed) return Status::DataLoss("snapshot header CRC mismatch");
  return h;
}

void EncodeSectionHeader(const SectionHeader& section, std::string* out) {
  PutU32(out, section.id);
  PutU32(out, section.rule_id);
  PutU64(out, section.length);
  PutU32(out, section.crc);
}

Result<SectionHeader> DecodeSectionHeader(std::string_view file,
                                          size_t offset) {
  if (offset > file.size() || file.size() - offset < kSectionHeaderBytes) {
    return Status::DataLoss("snapshot truncated inside a section header at "
                            "offset " +
                            std::to_string(offset));
  }
  Reader r(file.substr(offset, kSectionHeaderBytes));
  SectionHeader s;
  UC_ASSIGN_OR_RETURN(s.id, r.U32());
  UC_ASSIGN_OR_RETURN(s.rule_id, r.U32());
  UC_ASSIGN_OR_RETURN(s.length, r.U64());
  UC_ASSIGN_OR_RETURN(s.crc, r.U32());
  return s;
}

}  // namespace snapshot
}  // namespace uniclean
