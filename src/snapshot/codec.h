// snapshot::Codec: the (de)serialization of engine internals — the one
// class the data/similarity/core layers befriend so their private built
// state (the generalized suffix array's suffix order, memo contents) can
// round-trip through a snapshot file without widening their public APIs.
//
// Split of labor with snapshot.h: the codec knows *payload layouts* and the
// engine's internals; snapshot.h owns the container (header, section table,
// CRCs) and policy (what mismatch refuses a load). On the read side every
// codec function revalidates what it installs — tuple ids, string-table
// indices, the suffix order — against the live engine, so a forged payload
// that passed its CRC still cannot plant an out-of-range index that a
// later probe would walk off (the UC_CHECKs in the hot paths would abort;
// the codec returns kDataLoss instead).
//
// No interned id is serialized. A memo section opens with its own string
// table, `u32 n | n x (u32 length | bytes)`: the distinct strings its keys
// use, in order of first use. Keys hold indices into that table (a match
// list key part may also be the null sentinel), and the loader interns the
// table with StringPool::TryIntern and maps each index to a live id, so a
// file loads into any process whatever that process interned before. A
// file without memos carries no strings at all.
//
// What is NOT serialized is deliberate: everything derivable from the
// engine's sources in O(|Dm|) re-derives on load (clause roles, equality
// indexes, value_owners_, the suffix array's text from the master
// relation), which both shrinks the file and shrinks the forgeable surface.
// A matcher section is `u32 indexed master size | u8 kind`, and a
// suffix-array matcher appends only its suffix order (`u32 strings | u32 n
// | n x u32`); the loader proves in O(n) that it is the sorted order
// Build() makes. The kind byte is not a configuration check (the engine
// fingerprint covers use_blocking and every premise): it is a structural
// one, so a forged section cannot make the loader read a suffix order for
// a matcher that has none, or skip one that needs it.

#ifndef UNICLEAN_SNAPSHOT_CODEC_H_
#define UNICLEAN_SNAPSHOT_CODEC_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "snapshot/format.h"

namespace uniclean {
namespace snapshot {

/// A matcher or memo section paired with the rule id it is filed under:
/// the owner of its matcher, i.e. the lowest MD rule id with that premise.
struct RuleSection {
  uint32_t rule_id = 0;
  std::string_view payload;
};

class Codec {
 public:
  // --- write side (engine must be warm and quiesced) ------------------------

  /// Environment-level counts: rule count, distinct matcher count, master
  /// size.
  static void AppendEnvironment(const core::MatchEnvironment& env,
                                std::string* out);

  /// One matcher's master size and index kind, plus the suffix array's
  /// suffix order for a suffix-array matcher. Identical engines write
  /// identical bytes.
  static void AppendMatcher(const core::MdMatcher& matcher, std::string* out);

  /// One matcher's memo contents: the section's string table, then
  /// `u64 n | n x (u32 string index | tuple ids)` blocking candidates, then
  /// `u64 n | n x (u8 parts | parts x u32 string index | tuple ids)` match
  /// lists. Entry order is unspecified (sharded maps), so memo sections are
  /// the one part of a snapshot whose bytes are not deterministic.
  static void AppendMemos(const core::MdMatcher& matcher, std::string* out);

  // --- read side ------------------------------------------------------------

  /// Rebuilds a MatchEnvironment from parsed snapshot sections against an
  /// engine's live rules/master, interning each memo section's string
  /// table. Which rules share a matcher is derived from `rules`, as a cold
  /// build derives it, so each matcher (and memo) section must be filed
  /// under its matcher's owner. Equality indexes are re-derived from the
  /// master. Returns kDataLoss when a payload is structurally inconsistent
  /// with the engine (a missing owner section, a section filed under any
  /// other rule id, duplicates, a kind byte the matcher's premise does not
  /// have, out-of-range tuple ids or string indices, a suffix order that is
  /// not sorted, count mismatches).
  static Result<std::unique_ptr<core::MatchEnvironment>> RestoreEnvironment(
      const rules::RuleSet& rules, const data::Relation& master,
      const core::MdMatcherOptions& options, std::string_view env_payload,
      const std::vector<RuleSection>& matcher_sections,
      const std::vector<RuleSection>& memo_sections);

 private:
  static void AppendSuffixArray(
      const similarity::GeneralizedSuffixArray& index, std::string* out);
  static Status RestoreMatcher(core::MdMatcher* matcher,
                               std::string_view payload);
  static Status RestoreSuffixArray(core::MdMatcher* matcher, Reader* reader);
  static Status RestoreMemos(core::MdMatcher* matcher,
                             std::string_view payload);
};

}  // namespace snapshot
}  // namespace uniclean

#endif  // UNICLEAN_SNAPSHOT_CODEC_H_
