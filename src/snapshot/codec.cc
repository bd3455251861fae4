#include "snapshot/codec.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <utility>

#include "data/string_pool.h"

namespace uniclean {
namespace snapshot {

namespace {

/// Matcher payload `kind` byte: which index the matcher carries.
constexpr uint8_t kKindNone = 0;         // brute force / empty premise
constexpr uint8_t kKindEquality = 1;     // equality_index_
constexpr uint8_t kKindSuffixArray = 2;  // suffix order of the blocking values

Status Inconsistent(const std::string& what) {
  return Status::DataLoss("snapshot section inconsistent: " + what);
}

#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
constexpr bool kHostLittleEndian = false;
#else
constexpr bool kHostLittleEndian = true;
#endif

/// Bulk little-endian transfer of an int array. On little-endian hosts the
/// serialized bytes ARE the in-memory layout, so a restore is one bounds
/// check plus a memcpy instead of a Result round-trip per 4-byte entry.
/// Big-endian hosts take a word-swap pass.
void AppendWords(std::string* out, const std::vector<int>& v) {
  static_assert(sizeof(int) == 4, "codec assumes 32-bit int");
  if (kHostLittleEndian) {
    out->append(reinterpret_cast<const char*>(v.data()), v.size() * 4);
    return;
  }
  for (int w : v) PutU32(out, static_cast<uint32_t>(w));
}

Status ReadWords(Reader* r, size_t count, std::vector<int>* out) {
  UC_ASSIGN_OR_RETURN(const char* p, r->Raw(count * 4));
  out->resize(count);
  if (count != 0) std::memcpy(out->data(), p, count * 4);
  if (!kHostLittleEndian) {
    for (int& word : *out) {
      const uint32_t w = static_cast<uint32_t>(word);
      word = static_cast<int>((w >> 24) | ((w >> 8) & 0xFF00u) |
                              ((w << 8) & 0xFF0000u) | (w << 24));
    }
  }
  return Status::OK();
}

/// Reads a u32-counted ascending tuple-id list bounded by `master_size`.
/// Ascending-strict matches what every cold build produces (equality index
/// buckets, match lists, blocking candidates are all sorted unique), so
/// enforcing it here both validates and pins cold/warm parity.
Status ReadTupleIdList(Reader* r, uint32_t master_size,
                       std::vector<data::TupleId>* out) {
  UC_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  if (n > master_size) return Inconsistent("tuple list longer than master");
  out->clear();
  out->reserve(n);
  int64_t prev = -1;
  for (uint32_t i = 0; i < n; ++i) {
    UC_ASSIGN_OR_RETURN(uint32_t id, r->U32());
    if (id >= master_size || static_cast<int64_t>(id) <= prev) {
      return Inconsistent("tuple id out of range or out of order");
    }
    prev = id;
    out->push_back(static_cast<data::TupleId>(id));
  }
  return Status::OK();
}

void PutTupleIdList(std::string* out, const std::vector<data::TupleId>& ids) {
  PutU32(out, static_cast<uint32_t>(ids.size()));
  for (data::TupleId id : ids) PutU32(out, static_cast<uint32_t>(id));
}

bool GroupKeyLess(const data::GroupKey& a, const data::GroupKey& b) {
  if (a.size != b.size) return a.size < b.size;
  for (uint32_t i = 0; i < a.size; ++i) {
    if (a.parts[i] != b.parts[i]) return a.parts[i] < b.parts[i];
  }
  return false;
}

void PutGroupKey(std::string* out, const data::GroupKey& key) {
  PutU8(out, static_cast<uint8_t>(key.size));
  for (uint32_t i = 0; i < key.size; ++i) PutU32(out, key.parts[i]);
}

/// Reads a GroupKey of exactly `want_parts` parts; each part must be an id
/// below `pool_size` or the null sentinel (data-side projections may hold
/// nulls).
Result<data::GroupKey> ReadGroupKey(Reader* r, size_t want_parts,
                                    uint64_t pool_size) {
  UC_ASSIGN_OR_RETURN(uint8_t n, r->U8());
  if (n != want_parts || n > data::GroupKey::kMaxParts) {
    return Inconsistent("group key width mismatch");
  }
  data::GroupKey key;
  for (uint8_t i = 0; i < n; ++i) {
    UC_ASSIGN_OR_RETURN(uint32_t part, r->U32());
    if (part >= pool_size && part != data::StringPool::kNullId) {
      return Inconsistent("group key holds an unknown value id");
    }
    key.Append(part);
  }
  return key;
}

}  // namespace

// ---------------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------------

void Codec::AppendEnvironment(const core::MatchEnvironment& env,
                              std::string* out) {
  PutU32(out, static_cast<uint32_t>(env.rules().num_rules()));
  PutU32(out, static_cast<uint32_t>(env.num_matchers()));
  PutU32(out, static_cast<uint32_t>(env.master().size()));
}

void Codec::AppendSuffixArray(const similarity::GeneralizedSuffixArray& index,
                              std::string* out) {
  PutU32(out, static_cast<uint32_t>(index.num_strings()));
  PutU32(out, static_cast<uint32_t>(index.order_.size()));
  AppendWords(out, index.order_);
}

void Codec::AppendMatcher(const core::MdMatcher& matcher, std::string* out) {
  PutU32(out, static_cast<uint32_t>(matcher.dm_.size()));
  if (!matcher.options_.use_blocking) {
    PutU8(out, kKindNone);
    return;
  }
  if (!matcher.equality_clauses_.empty()) {
    PutU8(out, kKindEquality);
    std::vector<const std::pair<const data::GroupKey,
                                std::vector<data::TupleId>>*>
        entries;
    entries.reserve(matcher.equality_index_.size());
    for (const auto& entry : matcher.equality_index_) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) {
                return GroupKeyLess(a->first, b->first);
              });
    PutU64(out, entries.size());
    for (const auto* entry : entries) {
      PutGroupKey(out, entry->first);
      PutTupleIdList(out, entry->second);
    }
    return;
  }
  if (matcher.blocking_clause_ >= 0) {
    PutU8(out, kKindSuffixArray);
    AppendSuffixArray(matcher.suffix_array_, out);
    return;
  }
  PutU8(out, kKindNone);
}

void Codec::AppendMemos(const core::MdMatcher& matcher, uint64_t pool_limit,
                        std::string* out) {
  // Each family is buffered so the count prefix reflects post-filter
  // entries (ids interned after the header's pool generation was captured
  // cannot be resolved by a loader and are skipped).
  std::string entries;
  uint64_t count = 0;
  matcher.blocking_cache_.ForEach(
      [&](data::ValueId value, const std::vector<data::TupleId>& ids) {
        if (value >= pool_limit) return;
        PutU32(&entries, value);
        PutTupleIdList(&entries, ids);
        ++count;
      });
  PutU64(out, count);
  out->append(entries);
  entries.clear();
  count = 0;
  matcher.match_cache_.ForEach(
      [&](const data::GroupKey& key, const std::vector<data::TupleId>& ids) {
        for (uint32_t i = 0; i < key.size; ++i) {
          if (key.parts[i] >= pool_limit &&
              key.parts[i] != data::StringPool::kNullId) {
            return;
          }
        }
        PutGroupKey(&entries, key);
        PutTupleIdList(&entries, ids);
        ++count;
      });
  PutU64(out, count);
  out->append(entries);
}

// ---------------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------------

Status Codec::RestoreSuffixArray(core::MdMatcher* matcher, Reader* r) {
  // The indexed strings, their owners and the text come from the master
  // exactly as a cold build derives them; only the suffix order is read.
  matcher->CollectBlockingValues();
  similarity::GeneralizedSuffixArray& index = matcher->suffix_array_;
  const std::vector<int32_t>& text = index.text_;
  const size_t n = text.size();
  UC_ASSIGN_OR_RETURN(uint32_t num_strings, r->U32());
  if (num_strings != static_cast<uint32_t>(index.num_strings())) {
    return Inconsistent("suffix array string count does not match the master");
  }
  UC_ASSIGN_OR_RETURN(uint32_t length, r->U32());
  if (length != n) {
    return Inconsistent("suffix array length does not match the master");
  }
  std::vector<int> order;
  UC_RETURN_IF_ERROR(ReadWords(r, n, &order));
  // Prove in O(n) that `order` is the one Build() makes (Burkhardt &
  // Kärkkäinen's checker): a permutation of the text positions in which
  // every adjacent pair (a, b) has (text[a], rank[a + 1]) < (text[b],
  // rank[b + 1]). Equal symbols are never separators, because each string
  // has its own; the loop checks that too, since it is what keeps a + 1 and
  // b + 1 in range. A proven order keeps every text[s + depth] that TopL
  // reads in range as well.
  std::vector<int> rank(n, -1);
  for (size_t k = 0; k < n; ++k) {
    const size_t s = static_cast<uint32_t>(order[k]);
    if (s >= n || rank[s] >= 0) {
      return Inconsistent("suffix array is not a permutation of the text");
    }
    rank[s] = static_cast<int>(k);
  }
  for (size_t k = 1; k < n; ++k) {
    const size_t a = static_cast<size_t>(order[k - 1]);
    const size_t b = static_cast<size_t>(order[k]);
    if (text[a] < text[b]) continue;
    if (text[a] > text[b] || text[a] < 0 || rank[a + 1] >= rank[b + 1]) {
      return Inconsistent("suffix array is not in suffix order");
    }
  }
  index.order_ = std::move(order);
  index.Index();
  return Status::OK();
}

Status Codec::RestoreMatcher(core::MdMatcher* matcher,
                             std::string_view payload) {
  core::MdMatcher& m = *matcher;
  Reader r(payload);
  UC_ASSIGN_OR_RETURN(uint32_t indexed, r.U32());
  if (indexed != static_cast<uint32_t>(m.dm_.size())) {
    return Inconsistent("matcher indexed a different master size");
  }
  UC_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  // The restore constructor derived the clause roles from the MD + options;
  // the section's kind byte must agree, or the file was written by a
  // different configuration than the fingerprint admitted.
  uint8_t expected = kKindNone;
  if (m.options_.use_blocking) {
    if (!m.equality_clauses_.empty()) {
      expected = kKindEquality;
    } else if (m.blocking_clause_ >= 0) {
      expected = kKindSuffixArray;
    }
  }
  if (kind != expected) return Inconsistent("matcher index kind mismatch");
  if (kind == kKindEquality) {
    const uint64_t pool_size = data::StringPool::Global().size();
    UC_ASSIGN_OR_RETURN(uint64_t count, r.U64());
    // A real index has at most one group per master tuple; reserve for that
    // case only, so a forged count cannot pre-allocate beyond the master's
    // own size (an oversized count fails below, at worst at end-of-payload).
    if (count <= static_cast<uint64_t>(m.dm_.size())) {
      m.equality_index_.reserve(static_cast<size_t>(count));
    }
    for (uint64_t i = 0; i < count; ++i) {
      UC_ASSIGN_OR_RETURN(
          data::GroupKey key,
          ReadGroupKey(&r, m.equality_clauses_.size(), pool_size));
      std::vector<data::TupleId> ids;
      UC_RETURN_IF_ERROR(
          ReadTupleIdList(&r, static_cast<uint32_t>(m.dm_.size()), &ids));
      if (!m.equality_index_.emplace(key, std::move(ids)).second) {
        return Inconsistent("duplicate equality index key");
      }
    }
  } else if (kind == kKindSuffixArray) {
    UC_RETURN_IF_ERROR(RestoreSuffixArray(matcher, &r));
  }
  if (!r.done()) return Inconsistent("trailing bytes in matcher section");
  return Status::OK();
}

Status Codec::RestoreMemos(core::MdMatcher* matcher,
                           std::string_view payload) {
  core::MdMatcher& m = *matcher;
  const uint64_t pool_size = data::StringPool::Global().size();
  const uint32_t master_size = static_cast<uint32_t>(m.dm_.size());
  Reader r(payload);
  UC_ASSIGN_OR_RETURN(uint64_t blocking_count, r.U64());
  for (uint64_t i = 0; i < blocking_count; ++i) {
    UC_ASSIGN_OR_RETURN(uint32_t value, r.U32());
    if (value >= pool_size) {
      return Inconsistent("blocking memo value id out of range");
    }
    std::vector<data::TupleId> ids;
    UC_RETURN_IF_ERROR(ReadTupleIdList(&r, master_size, &ids));
    m.blocking_cache_.Insert(value, std::move(ids));
  }
  UC_ASSIGN_OR_RETURN(uint64_t match_count, r.U64());
  for (uint64_t i = 0; i < match_count; ++i) {
    UC_ASSIGN_OR_RETURN(data::GroupKey key,
                        ReadGroupKey(&r, m.md_.premise().size(), pool_size));
    std::vector<data::TupleId> ids;
    UC_RETURN_IF_ERROR(ReadTupleIdList(&r, master_size, &ids));
    m.match_cache_.Insert(key, std::move(ids));
  }
  if (!r.done()) return Inconsistent("trailing bytes in memo section");
  return Status::OK();
}

Result<std::unique_ptr<core::MatchEnvironment>> Codec::RestoreEnvironment(
    const rules::RuleSet& rules, const data::Relation& master,
    const core::MdMatcherOptions& options, std::string_view env_payload,
    const std::vector<RuleSection>& matcher_sections,
    const std::vector<RuleSection>& memo_sections) {
  Reader er(env_payload);
  UC_ASSIGN_OR_RETURN(uint32_t num_rules, er.U32());
  UC_ASSIGN_OR_RETURN(uint32_t num_matchers, er.U32());
  UC_ASSIGN_OR_RETURN(uint32_t master_size, er.U32());
  if (!er.done()) return Inconsistent("trailing bytes in environment section");
  if (num_rules != static_cast<uint32_t>(rules.num_rules())) {
    return Inconsistent("rule count does not match the engine");
  }
  if (master_size != static_cast<uint32_t>(master.size())) {
    return Inconsistent("master size does not match the engine");
  }
  // The tag constructor groups the rules by premise exactly as a cold
  // build does, so the rule -> matcher map is derived, never read: the
  // engine fingerprint already pins the rule set.
  std::unique_ptr<core::MatchEnvironment> env(new core::MatchEnvironment(
      rules, master, options, core::MatchEnvironment::RestoreTag{}));
  const size_t num_slots = env->matchers_.size();
  if (num_matchers != num_slots) {
    return Inconsistent("matcher count does not match the rule set");
  }
  // Files each section under its matcher's slot. Sections are filed under
  // the slot's owner, the lowest rule id of its premise group; one filed
  // under any other id (a CFD, an MD that shares a lower id's matcher, or
  // out of range), or a second one for a slot, is DataLoss.
  const auto by_slot = [&](const std::vector<RuleSection>& sections,
                           const std::string& kind,
                           std::vector<const RuleSection*>* out) -> Status {
    out->assign(num_slots, nullptr);
    for (const RuleSection& section : sections) {
      const int slot = section.rule_id < num_rules
                           ? env->matcher_slot_[section.rule_id]
                           : -1;
      if (slot < 0 || env->owners_[static_cast<size_t>(slot)] !=
                          static_cast<rules::RuleId>(section.rule_id)) {
        return Inconsistent(kind + " section filed under rule id " +
                            std::to_string(section.rule_id) +
                            ", which owns no matcher");
      }
      const RuleSection*& filed = (*out)[static_cast<size_t>(slot)];
      if (filed != nullptr) {
        return Inconsistent("duplicate " + kind + " section");
      }
      filed = &section;
    }
    return Status::OK();
  };
  std::vector<const RuleSection*> matcher_of;
  std::vector<const RuleSection*> memos_of;
  UC_RETURN_IF_ERROR(by_slot(matcher_sections, "matcher", &matcher_of));
  UC_RETURN_IF_ERROR(by_slot(memo_sections, "memo", &memos_of));
  for (size_t slot = 0; slot < num_slots; ++slot) {
    if (matcher_of[slot] == nullptr) {
      return Inconsistent("missing matcher section for rule " +
                          rules.rule_name(env->owners_[slot]));
    }
  }

  // One work item per matcher slot: construct the shell, install the
  // serialized index, then the memos. Items are independent — each touches
  // only its own matcher and reads shared immutable state (rules, master,
  // string pool) — so they restore in parallel; the suffix-array payloads
  // dominate the wall clock and overlap instead of queueing. The rules
  // sharing a slot see its matcher through the environment's slot map.
  std::vector<Status> results(num_slots, Status::OK());
  const auto restore_item = [&](size_t slot) {
    std::unique_ptr<core::MdMatcher> matcher(
        new core::MdMatcher(rules.md(env->owners_[slot]), master, options,
                            core::MdMatcher::RestoreTag{}));
    Status status = RestoreMatcher(matcher.get(), matcher_of[slot]->payload);
    if (status.ok() && memos_of[slot] != nullptr) {
      status = RestoreMemos(matcher.get(), memos_of[slot]->payload);
    }
    if (status.ok()) env->matchers_[slot] = std::move(matcher);
    results[slot] = std::move(status);
  };
  const size_t n_threads = std::min<size_t>(
      num_slots, std::max<size_t>(1, std::thread::hardware_concurrency()));
  if (n_threads <= 1) {
    for (size_t i = 0; i < num_slots; ++i) restore_item(i);
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(n_threads);
    for (size_t t = 0; t < n_threads; ++t) {
      workers.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < num_slots;
             i = next.fetch_add(1)) {
          restore_item(i);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  // First failure in slot (owner rule id) order, so a hostile file yields
  // the same diagnostic regardless of thread scheduling.
  for (Status& status : results) {
    if (!status.ok()) return std::move(status);
  }
  return env;
}

}  // namespace snapshot
}  // namespace uniclean
