#include "snapshot/codec.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <utility>

#include "data/string_pool.h"

namespace uniclean {
namespace snapshot {

namespace {

/// Matcher payload `kind` byte: which index the matcher carries.
constexpr uint8_t kKindNone = 0;      // brute force / empty premise
constexpr uint8_t kKindEquality = 1;  // equality_index_
constexpr uint8_t kKindTree = 2;      // suffix tree + leaf slices

Status Inconsistent(const std::string& what) {
  return Status::DataLoss("snapshot section inconsistent: " + what);
}

#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
constexpr bool kHostLittleEndian = false;
#else
constexpr bool kHostLittleEndian = true;
#endif

/// Bulk little-endian array transfer for trivially copyable element types
/// made of 4-byte words (int32 scalars, the suffix tree's 3-word Node, the
/// 2-word leaf-range pair). On little-endian hosts the serialized bytes ARE
/// the in-memory layout, so a restore is one bounds check plus a memcpy —
/// the difference between a millisecond warm start and paying a Result
/// round-trip per 4-byte field. Big-endian hosts take a word-swap pass.
template <typename T>
void AppendWords(std::string* out, const std::vector<T>& v) {
  static_assert(sizeof(T) % 4 == 0, "element must be whole 4-byte words");
  if (v.empty()) return;
  if (kHostLittleEndian) {
    out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
    return;
  }
  const auto* words = reinterpret_cast<const uint32_t*>(v.data());
  for (size_t i = 0; i < v.size() * (sizeof(T) / 4); ++i) {
    PutU32(out, words[i]);
  }
}

template <typename T>
Status ReadWords(Reader* r, size_t count, std::vector<T>* out) {
  static_assert(sizeof(T) % 4 == 0, "element must be whole 4-byte words");
  if (count == 0) {
    out->clear();
    return Status::OK();
  }
  const size_t bytes = count * sizeof(T);
  UC_ASSIGN_OR_RETURN(const char* p, r->Raw(bytes));
  out->resize(count);
  std::memcpy(out->data(), p, bytes);
  if (!kHostLittleEndian) {
    auto* words = reinterpret_cast<uint32_t*>(out->data());
    for (size_t i = 0; i < bytes / 4; ++i) {
      const uint32_t w = words[i];
      words[i] = (w >> 24) | ((w >> 8) & 0xFF00u) | ((w << 8) & 0xFF0000u) |
                 (w << 24);
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

void Codec::AppendTree(const similarity::GeneralizedSuffixTree& tree,
                       std::string* out) {
  // The planar layouts below mirror the tree's in-memory arrays exactly
  // (see AppendWords); these asserts pin the assumption.
  static_assert(sizeof(int) == 4, "codec assumes 32-bit int");
  static_assert(sizeof(similarity::GeneralizedSuffixTree::Node) == 12,
                "Node must be exactly {start, end, link}");
  static_assert(
      sizeof(similarity::GeneralizedSuffixTree::LeafRange) == 8,
      "LeafRange must pack to two words");
  PutU32(out, static_cast<uint32_t>(tree.num_strings()));
  PutU32(out, static_cast<uint32_t>(tree.nodes_.size()));
  AppendWords(out, tree.nodes_);
  // Frozen CSR children: FreezeChildren() sorted each node's slice by
  // symbol, so identical engines write identical bytes and a loaded tree
  // binary-searches the same arrays a cold-built one does.
  AppendWords(out, tree.child_begin_);
  AppendWords(out, tree.child_symbols_);
  AppendWords(out, tree.child_nodes_);
  AppendWords(out, tree.suffix_start_);
  PutU32(out, static_cast<uint32_t>(tree.leaf_starts_.size()));
  AppendWords(out, tree.leaf_starts_);
  AppendWords(out, tree.leaf_range_);
}

void Codec::AppendMatcher(const core::MdMatcher& matcher, std::string* out) {
  PutU32(out, static_cast<uint32_t>(matcher.indexed_masters()));
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
    PutU8(out, kKindTree);
    AppendTree(matcher.tree_, out);
    return;
  }
  PutU8(out, kKindNone);
}

void Codec::AppendMemos(const core::MdMatcher& matcher, uint64_t pool_limit,
                        std::string* out) {
  PutU32(out, static_cast<uint32_t>(matcher.sim_cache_.size()));
  // Each family is buffered so the count prefix reflects post-filter
  // entries (ids interned after the header's pool generation was captured
  // cannot be resolved by a loader and are skipped).
  std::string entries;
  for (const auto& clause_cache : matcher.sim_cache_) {
    entries.clear();
    uint64_t count = 0;
    clause_cache.ForEach([&](uint64_t key, bool holds) {
      if ((key >> 32) >= pool_limit || (key & 0xFFFFFFFFull) >= pool_limit) {
        return;
      }
      PutU64(&entries, key);
      PutU8(&entries, holds ? 1 : 0);
      ++count;
    });
    PutU64(out, count);
    out->append(entries);
  }
  entries.clear();
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

Status Codec::RestoreTree(core::MdMatcher* matcher, Reader* r) {
  core::MdMatcher& m = *matcher;
  similarity::GeneralizedSuffixTree& tree = m.tree_;
  // Re-derive the cheap half exactly as RebuildSuffixTree does — the
  // indexed strings, their owners and the concatenated text come from the
  // master relation in tuple order — then install the serialized expensive
  // half (nodes + leaf slices) instead of running Ukkonen's build.
  const data::AttributeId attr =
      m.md_.premise()[static_cast<size_t>(m.blocking_clause_)].master_attr;
  std::unordered_map<data::ValueId, int> value_to_string_id;
  value_to_string_id.reserve(m.dm_.size());
  m.value_owners_.reserve(m.dm_.size());
  for (data::TupleId s = 0; s < m.dm_.size(); ++s) {
    const data::Value& v = m.dm_.tuple(s).value(attr);
    if (v.is_null()) continue;
    auto [it, inserted] = value_to_string_id.emplace(
        v.id(), static_cast<int>(m.value_owners_.size()));
    if (inserted) {
      tree.AddString(v.view());
      m.value_owners_.emplace_back();
    }
    m.value_owners_[static_cast<size_t>(it->second)].push_back(s);
  }
  const int text_size = static_cast<int>(tree.text_.size());

  UC_ASSIGN_OR_RETURN(uint32_t num_strings, r->U32());
  if (num_strings != static_cast<uint32_t>(tree.num_strings())) {
    return Inconsistent("suffix tree string count does not match the master");
  }
  UC_ASSIGN_OR_RETURN(uint32_t node_count, r->U32());
  // A suffix tree over n symbols has at most 2n internal+leaf nodes plus
  // the root; a forged count past that cannot be a real tree.
  if (node_count < 1 ||
      node_count > 2 * static_cast<uint32_t>(text_size) + 2) {
    return Inconsistent("suffix tree node count out of range");
  }
  // Every array lands as a bulk copy first, then a tight validation pass —
  // after the copies, every index the query paths will ever follow is
  // checked against the live extents, so a forged payload that passed its
  // CRC still cannot plant an out-of-range access.
  UC_RETURN_IF_ERROR(ReadWords(r, node_count, &tree.nodes_));
  // Root carries no edge label.
  if (tree.nodes_[0].start != -1 || tree.nodes_[0].end != -1) {
    return Inconsistent("root node carries an edge label");
  }
  {
    int link_bad = 0;
    int edge_bad = 0;
    for (uint32_t i = 0; i < node_count; ++i) {
      const auto& node = tree.nodes_[i];
      link_bad |= static_cast<int>(static_cast<uint32_t>(node.link) >=
                                   node_count);
      if (i == 0) continue;
      // Edge bounds must keep every text_[start..EdgeEnd) access in range.
      const int edge_end = node.end == -1 ? text_size : node.end;
      edge_bad |= static_cast<int>(node.start < 0) |
                  static_cast<int>(node.end < -1) |
                  static_cast<int>(edge_end > text_size) |
                  static_cast<int>(edge_end < node.start);
    }
    if (link_bad != 0) return Inconsistent("suffix link out of range");
    if (edge_bad != 0) return Inconsistent("node edge label out of range");
  }
  UC_RETURN_IF_ERROR(
      ReadWords(r, static_cast<size_t>(node_count) + 1, &tree.child_begin_));
  // In any rooted tree every node except the root enters through exactly
  // one parent edge, so the CSR must carry node_count - 1 edges.
  if (tree.child_begin_[0] != 0 ||
      tree.child_begin_[node_count] != static_cast<int>(node_count) - 1) {
    return Inconsistent("child slice table does not cover node_count - 1 "
                        "edges");
  }
  {
    int bad = 0;
    for (uint32_t i = 0; i < node_count; ++i) {
      bad |= static_cast<int>(tree.child_begin_[i] > tree.child_begin_[i + 1]);
    }
    if (bad != 0) return Inconsistent("child slice table not monotone");
  }
  const size_t edge_count = static_cast<size_t>(node_count) - 1;
  UC_RETURN_IF_ERROR(ReadWords(r, edge_count, &tree.child_symbols_));
  for (uint32_t i = 0; i < node_count; ++i) {
    // Strictly ascending symbols within each node's slice: what
    // FreezeChildren wrote, what FindChild's binary search requires, and a
    // free duplicate-symbol rejection.
    for (int c = tree.child_begin_[i] + 1; c < tree.child_begin_[i + 1];
         ++c) {
      if (tree.child_symbols_[static_cast<size_t>(c) - 1] >=
          tree.child_symbols_[static_cast<size_t>(c)]) {
        return Inconsistent("child symbols not ascending");
      }
    }
  }
  UC_RETURN_IF_ERROR(ReadWords(r, edge_count, &tree.child_nodes_));
  {
    std::vector<uint8_t> seen(node_count, 0);
    for (const int child : tree.child_nodes_) {
      if (child <= 0 || static_cast<uint32_t>(child) >= node_count) {
        return Inconsistent("child node index out of range");
      }
      if (seen[static_cast<size_t>(child)] != 0) {
        return Inconsistent("node is a child of two parents");
      }
      seen[static_cast<size_t>(child)] = 1;
    }
  }
  // The range checks below fold the whole array into min/max (or an OR of
  // violation bits) and test once — branchless loops the compiler
  // vectorizes, which matters at half a million elements per tree.
  UC_RETURN_IF_ERROR(ReadWords(r, node_count, &tree.suffix_start_));
  {
    int lo = 0;
    int hi = -1;
    for (const int s : tree.suffix_start_) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    if (lo < -1 || hi >= text_size) {
      return Inconsistent("suffix start out of range");
    }
  }
  UC_ASSIGN_OR_RETURN(uint32_t leaf_count, r->U32());
  if (leaf_count > static_cast<uint32_t>(text_size)) {
    return Inconsistent("more leaves than text positions");
  }
  UC_RETURN_IF_ERROR(ReadWords(r, leaf_count, &tree.leaf_starts_));
  {
    // TopL indexes the position -> string-id map with leaf starts
    // unchecked; refuse an out-of-range one here.
    int lo = 0;
    int hi = -1;
    for (const int s : tree.leaf_starts_) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    if (lo < 0 || hi >= text_size) {
      return Inconsistent("leaf start out of range");
    }
  }
  UC_RETURN_IF_ERROR(ReadWords(r, node_count, &tree.leaf_range_));
  {
    int bad = 0;
    for (const auto& [begin, end] : tree.leaf_range_) {
      bad |= static_cast<int>(begin < 0) | static_cast<int>(end < begin) |
             static_cast<int>(end > static_cast<int>(leaf_count));
    }
    if (bad != 0) return Inconsistent("leaf slice out of range");
  }
  // The O(1) position -> string-id map is derivable; rebuild it like
  // Build()'s tail does.
  tree.pos_string_id_.assign(static_cast<size_t>(text_size), -1);
  for (size_t id = 0; id < tree.boundaries_.size(); ++id) {
    const int begin = tree.boundaries_[id];
    for (int k = 0; k < tree.string_length_[id]; ++k) {
      tree.pos_string_id_[static_cast<size_t>(begin + k)] =
          static_cast<int>(id);
    }
  }
  tree.built_ = true;
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
      expected = kKindTree;
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
  } else if (kind == kKindTree) {
    UC_RETURN_IF_ERROR(RestoreTree(matcher, &r));
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
  UC_ASSIGN_OR_RETURN(uint32_t n_clauses, r.U32());
  if (n_clauses != m.sim_cache_.size()) {
    return Inconsistent("similarity memo clause count mismatch");
  }
  for (uint32_t c = 0; c < n_clauses; ++c) {
    UC_ASSIGN_OR_RETURN(uint64_t count, r.U64());
    for (uint64_t i = 0; i < count; ++i) {
      UC_ASSIGN_OR_RETURN(uint64_t key, r.U64());
      UC_ASSIGN_OR_RETURN(uint8_t value, r.U8());
      if ((key >> 32) >= pool_size || (key & 0xFFFFFFFFull) >= pool_size ||
          value > 1) {
        return Inconsistent("similarity memo entry out of range");
      }
      bool holds = value != 0;
      m.sim_cache_[c].Insert(key, std::move(holds));
    }
  }
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
  std::unique_ptr<core::MatchEnvironment> env(new core::MatchEnvironment(
      rules, master, options, core::MatchEnvironment::RestoreTag{}));
  // One matcher section per MD rule id, no dups, no strays.
  std::unordered_map<uint32_t, std::string_view> by_rule;
  for (const RuleSection& section : matcher_sections) {
    if (section.rule_id >= num_rules ||
        rules.IsCfd(static_cast<rules::RuleId>(section.rule_id))) {
      return Inconsistent("matcher section for a non-MD rule id");
    }
    if (!by_rule.emplace(section.rule_id, section.payload).second) {
      return Inconsistent("duplicate matcher section");
    }
  }
  // Memo sections are validated against the table up front so the parallel
  // phase below only sees well-attributed payloads.
  std::unordered_map<uint32_t, std::string_view> memo_by_rule;
  for (const RuleSection& section : memo_sections) {
    if (by_rule.count(section.rule_id) == 0) {
      return Inconsistent("memo section without a matcher");
    }
    if (!memo_by_rule.emplace(section.rule_id, section.payload).second) {
      return Inconsistent("duplicate memo section");
    }
  }

  // One work item per MD rule: construct the shell, install the serialized
  // index, then the rule's memos. Items are independent — each touches only
  // its own matcher and reads shared immutable state (rules, master, string
  // pool) — so they restore in parallel; the two suffix-tree payloads
  // dominate the wall clock and overlap instead of queueing.
  struct Item {
    rules::RuleId rule;
    std::string_view matcher_payload;
    std::string_view memo_payload;  // empty when the rule carried no memos
    bool has_memos = false;
  };
  std::vector<Item> items;
  for (rules::RuleId rule = 0; rule < rules.num_rules(); ++rule) {
    if (rules.IsCfd(rule)) continue;
    auto it = by_rule.find(static_cast<uint32_t>(rule));
    if (it == by_rule.end()) {
      return Inconsistent("missing matcher section for rule " +
                          rules.rule_name(rule));
    }
    Item item;
    item.rule = rule;
    item.matcher_payload = it->second;
    auto memo_it = memo_by_rule.find(static_cast<uint32_t>(rule));
    if (memo_it != memo_by_rule.end()) {
      item.memo_payload = memo_it->second;
      item.has_memos = true;
    }
    items.push_back(item);
  }

  std::vector<Status> results(items.size(), Status::OK());
  const auto restore_item = [&](size_t idx) {
    const Item& item = items[idx];
    std::unique_ptr<core::MdMatcher> matcher(new core::MdMatcher(
        rules.md(item.rule), master, options, core::MdMatcher::RestoreTag{}));
    Status status = RestoreMatcher(matcher.get(), item.matcher_payload);
    if (status.ok() && item.has_memos) {
      status = RestoreMemos(matcher.get(), item.memo_payload);
    }
    if (status.ok()) {
      env->matchers_[static_cast<size_t>(item.rule)] = std::move(matcher);
    }
    results[idx] = std::move(status);
  };
  const size_t n_threads = std::min<size_t>(
      items.size(),
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  if (n_threads <= 1) {
    for (size_t i = 0; i < items.size(); ++i) restore_item(i);
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(n_threads);
    for (size_t t = 0; t < n_threads; ++t) {
      workers.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < items.size();
             i = next.fetch_add(1)) {
          restore_item(i);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  // First failure in rule order, so a hostile file yields the same
  // diagnostic regardless of thread scheduling.
  for (Status& status : results) {
    if (!status.ok()) return std::move(status);
  }
  env->num_matchers_ = static_cast<int>(items.size());
  if (num_matchers != static_cast<uint32_t>(env->num_matchers_)) {
    return Inconsistent("matcher count does not match the section table");
  }
  return env;
}

}  // namespace snapshot
}  // namespace uniclean
