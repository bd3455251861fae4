// snapshot::Codec: the (de)serialization of engine internals — the one
// class the data/similarity/core layers befriend so their private built
// state (equality indexes, the generalized suffix array's suffix order,
// memo contents) can round-trip through a snapshot file without widening
// their public APIs.
//
// Split of labor with snapshot.h: the codec knows *payload layouts* and the
// engine's internals; snapshot.h owns the container (header, section table,
// CRCs) and policy (what mismatch refuses a load). On the read side every
// codec function revalidates what it installs — tuple ids, value ids, the
// suffix order — against the live engine, so a forged payload that passed
// its CRC still cannot plant an out-of-range index that a later probe would
// walk off (the UC_CHECKs in the hot paths would abort; the codec returns
// kDataLoss instead).
//
// What is NOT serialized is deliberate: everything cheaply derivable from
// the engine's sources re-derives on load (clause roles, value_owners_, the
// suffix array's text from the master relation), which both shrinks the
// file and shrinks the forgeable surface. A suffix-array matcher persists
// only its suffix order (`u32 strings | u32 n | n x u32`); the loader
// proves in O(n) that it is the sorted order Build() makes.

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

  /// One matcher's built index: the equality index, or the suffix array's
  /// suffix order, or nothing (brute-force / empty premise). Entries are
  /// emitted in sorted order so identical engines write identical bytes.
  static void AppendMatcher(const core::MdMatcher& matcher, std::string* out);

  /// One matcher's memo contents: `u64 n | n x (u32 value id | tuple ids)`
  /// blocking candidates, then `u64 n | n x (group key | tuple ids)` match
  /// lists. Entries referencing value ids >= `pool_limit` (interned after
  /// the header's generation was captured) are skipped — they could not be
  /// resolved by a loader. Entry order is unspecified (sharded maps), so
  /// memo sections are the one part of a snapshot whose bytes are not
  /// deterministic.
  static void AppendMemos(const core::MdMatcher& matcher, uint64_t pool_limit,
                          std::string* out);

  // --- read side ------------------------------------------------------------

  /// Rebuilds a MatchEnvironment from parsed snapshot sections against an
  /// engine's live rules/master (the string pool must already hold the
  /// snapshot's generation — see snapshot.h load order). Which rules share
  /// a matcher is derived from `rules`, as a cold build derives it, so each
  /// matcher (and memo) section must be filed under its matcher's owner.
  /// Returns kDataLoss when a payload is structurally inconsistent with the
  /// engine (a missing owner section, a section filed under any other rule
  /// id, duplicates, out-of-range indices, count mismatches).
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
