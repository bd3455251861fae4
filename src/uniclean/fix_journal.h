// FixJournal: structured per-cell fix provenance. Every repaired cell is
// recorded with its tuple id, attribute, old/new value, the phase that
// produced the fix and the justifying rule — replacing the ad-hoc report
// text the CLI used to assemble by scanning FixMarks. Phases append entries
// in application order, so a cell rewritten twice (eRepair under δ1 > 1)
// appears twice and the entries chain: the second entry's old value is the
// first entry's new value.

#ifndef UNICLEAN_UNICLEAN_FIX_JOURNAL_H_
#define UNICLEAN_UNICLEAN_FIX_JOURNAL_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/relation.h"
#include "data/value.h"

namespace uniclean {

/// One recorded fix event.
struct FixEntry {
  data::TupleId tuple = -1;
  data::AttributeId attr = -1;
  /// Attribute name (denormalized so the journal is self-describing).
  std::string attribute;
  data::Value old_value;
  data::Value new_value;
  /// Name of the phase that produced the fix, e.g. "cRepair".
  std::string phase;
  /// Name of the justifying rule; empty when no single rule is attributable.
  std::string rule;
};

class FixJournal {
 public:
  void Append(FixEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<FixEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Number of entries recorded by the named phase.
  int CountForPhase(std::string_view phase) const;

  /// The canonical fix set: the NET repair per cell, sorted by (tuple,
  /// attr). A cell rewritten several
  /// times collapses to one entry from its first old value to its last new
  /// value, attributed to the phase/rule that wrote the final value; a cell
  /// whose chain nets to no change (churn a later entry undid) drops out
  /// entirely. The (tuple, attribute, old, new) columns are evaluation-order
  /// independent; phase/rule are *derivation* provenance and may legitimately
  /// differ between two runs that net the same fixes (see
  /// CanonicalFixSetCsv).
  FixJournal Canonicalized() const;

  /// The canonical fix set rendered as CSV WITHOUT the provenance columns:
  /// header `tuple,attribute,old,new`, one row per Canonicalized() entry.
  /// Which pipeline phase lands the final write for a cell depends on the
  /// evaluation trajectory (phase order, thresholds), so provenance is not
  /// comparable across pipelines that take different paths. This rendering
  /// is the trajectory-independent view: two journals that repaired the
  /// same cells to the same values produce byte-identical strings.
  std::string CanonicalFixSetCsv() const;

  /// (phase, count) pairs in order of each phase's first appearance.
  std::vector<std::pair<std::string, int>> CountsByPhase() const;

  /// Human-readable report, one line per fix:
  ///   row 3 city: 'Edii' -> 'Edi' [cRepair phi1]
  Status WriteText(std::ostream& out) const;
  Status WriteTextFile(const std::string& path) const;

  /// RFC-4180 CSV with header `tuple,attribute,old,new,phase,rule`; nulls
  /// are rendered as \N like data/csv.h. Values containing commas, quotes or
  /// newlines are quoted, so data/csv.h's reader reads the 6-column form
  /// back over a schema of those six names (a value whose *text* is the
  /// null token `\N` reads back as null, as in any relation CSV).
  /// Rendered into one string reserved up front.
  std::string ToCsv() const;
  /// Writes ToCsv() to `out`.
  Status WriteCsv(std::ostream& out) const;
  Status WriteCsvFile(const std::string& path) const;

 private:
  std::vector<FixEntry> entries_;
};

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_FIX_JOURNAL_H_
