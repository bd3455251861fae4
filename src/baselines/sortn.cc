#include "baselines/sortn.h"

#include <algorithm>
#include <string>

#include "core/md_matcher.h"

namespace uniclean {
namespace baselines {

namespace {

/// The sorting key of a tuple for one MD: concatenation of its premise
/// attribute values (data side or master side).
std::string SortKey(const rules::Md& md, const data::Tuple& t,
                    bool master_side) {
  std::string key;
  for (const rules::MdClause& c : md.premise()) {
    const data::Value& v =
        t.value(master_side ? c.master_attr : c.data_attr);
    key += v.str();
    key.push_back('\x1f');
  }
  return key;
}

struct Entry {
  std::string key;
  bool is_master;
  data::TupleId id;
};

}  // namespace

std::vector<MatchPair> SortedNeighborhoodMatch(const data::Relation& d,
                                               const data::Relation& dm,
                                               const std::vector<rules::Md>& mds,
                                               const SortNOptions& options) {
  std::vector<MatchPair> matches;
  for (const rules::Md& raw : mds) {
    for (const rules::Md& md : raw.Normalize()) {
      std::vector<Entry> entries;
      entries.reserve(static_cast<size_t>(d.size() + dm.size()));
      for (data::TupleId t = 0; t < d.size(); ++t) {
        entries.push_back(Entry{SortKey(md, d.tuple(t), false), false, t});
      }
      for (data::TupleId s = 0; s < dm.size(); ++s) {
        entries.push_back(Entry{SortKey(md, dm.tuple(s), true), true, s});
      }
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.key < b.key; });
      const int n = static_cast<int>(entries.size());
      for (int i = 0; i < n; ++i) {
        if (entries[static_cast<size_t>(i)].is_master) continue;
        data::TupleId t = entries[static_cast<size_t>(i)].id;
        int lo = std::max(0, i - options.window + 1);
        int hi = std::min(n - 1, i + options.window - 1);
        for (int j = lo; j <= hi; ++j) {
          if (!entries[static_cast<size_t>(j)].is_master) continue;
          data::TupleId s = entries[static_cast<size_t>(j)].id;
          if (md.PremiseHolds(d.tuple(t), dm.tuple(s))) {
            matches.emplace_back(t, s);
          }
        }
      }
    }
  }
  std::sort(matches.begin(), matches.end());
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
  return matches;
}

std::vector<MatchPair> FindAllMatches(const data::Relation& d,
                                      const data::Relation& dm,
                                      const std::vector<rules::Md>& mds) {
  std::vector<MatchPair> matches;
  for (const rules::Md& raw : mds) {
    for (const rules::Md& md : raw.Normalize()) {
      core::MdMatcher matcher(md, dm);
      for (data::TupleId t = 0; t < d.size(); ++t) {
        for (data::TupleId s : matcher.Matches(d.tuple(t))) {
          matches.emplace_back(t, s);
        }
      }
    }
  }
  std::sort(matches.begin(), matches.end());
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
  return matches;
}

}  // namespace baselines
}  // namespace uniclean
