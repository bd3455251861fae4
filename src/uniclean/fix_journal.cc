#include "uniclean/fix_journal.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <numeric>
#include <ostream>
#include <utility>

#include "data/csv.h"

namespace uniclean {

namespace {

/// Appends a value the way data/csv.cc's writer renders it.
void AppendCsvValue(std::string* out, const data::Value& v) {
  if (v.is_null()) {
    out->append(data::kNullToken);
  } else {
    data::AppendCsvQuoted(out, v.view());
  }
}

template <typename WriteFn>
Status WriteToFile(const std::string& path, WriteFn write) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::Internal("cannot open file for write: " + path);
  }
  return write(out);
}

}  // namespace

int FixJournal::CountForPhase(std::string_view phase) const {
  int count = 0;
  for (const FixEntry& e : entries_) {
    if (e.phase == phase) ++count;
  }
  return count;
}

FixJournal FixJournal::Canonicalized() const {
  // Chain the entries per cell in append order, keeping one net entry from
  // the first old value to the last new value, attributed to the final
  // writer. Cells whose chain nets to no change drop out: the canonical
  // journal is the set of repairs the journal stands behind, not the
  // derivation trace (two runs that reach the same repairs through
  // different intermediate rewrites must canonicalize identically). A
  // stable sort of entry indices by (tuple, attribute) lines each cell's
  // chain up in append order, and the cells in output order.
  std::vector<size_t> order(entries_.size());
  std::iota(order.begin(), order.end(), 0);
  const auto cell_less = [this](size_t a, size_t b) {
    const FixEntry& x = entries_[a];
    const FixEntry& y = entries_[b];
    if (x.tuple != y.tuple) return x.tuple < y.tuple;
    return x.attribute < y.attribute;
  };
  std::stable_sort(order.begin(), order.end(), cell_less);
  FixJournal canonical;
  canonical.entries_.reserve(order.size());
  for (size_t i = 0; i < order.size();) {
    size_t end = i + 1;
    while (end < order.size() && !cell_less(order[i], order[end])) ++end;
    const FixEntry& first = entries_[order[i]];
    const FixEntry& last = entries_[order[end - 1]];
    i = end;
    if (first.old_value == last.new_value ||
        (first.old_value.is_null() && last.new_value.is_null())) {
      continue;
    }
    canonical.entries_.push_back(FixEntry{first.tuple, first.attr,
                                          first.attribute, first.old_value,
                                          last.new_value, last.phase,
                                          last.rule});
  }
  return canonical;
}

std::string FixJournal::CanonicalFixSetCsv() const {
  std::string out = "tuple,attribute,old,new\n";
  for (const FixEntry& e : Canonicalized().entries_) {
    out += std::to_string(e.tuple);
    out += ',';
    data::AppendCsvQuoted(&out, e.attribute);
    out += ',';
    AppendCsvValue(&out, e.old_value);
    out += ',';
    AppendCsvValue(&out, e.new_value);
    out += '\n';
  }
  return out;
}

std::vector<std::pair<std::string, int>> FixJournal::CountsByPhase() const {
  std::vector<std::pair<std::string, int>> counts;
  for (const FixEntry& e : entries_) {
    bool found = false;
    for (auto& [phase, count] : counts) {
      if (phase == e.phase) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) counts.emplace_back(e.phase, 1);
  }
  return counts;
}

Status FixJournal::WriteText(std::ostream& out) const {
  for (const FixEntry& e : entries_) {
    out << "row " << e.tuple << ' ' << e.attribute << ": '"
        << e.old_value.ToString() << "' -> '" << e.new_value.ToString()
        << "' [" << e.phase;
    if (!e.rule.empty()) out << ' ' << e.rule;
    out << "]\n";
  }
  if (!out.good()) return Status::Internal("fix journal write failed");
  return Status::OK();
}

std::string FixJournal::ToCsv() const {
  static constexpr std::string_view kHeader =
      "tuple,attribute,old,new,phase,rule\n";
  // Every field but the tuple id, plus a null token, five commas, the id's
  // digits and a newline; quoting past that grows the string.
  size_t bytes = kHeader.size();
  for (const FixEntry& e : entries_) {
    bytes += e.attribute.size() + e.old_value.size() + e.new_value.size() +
             e.phase.size() + e.rule.size() + 20;
  }
  std::string out;
  out.reserve(bytes);
  out += kHeader;
  char digits[16];
  for (const FixEntry& e : entries_) {
    out.append(digits,
               std::to_chars(digits, digits + sizeof(digits), e.tuple).ptr);
    out += ',';
    data::AppendCsvQuoted(&out, e.attribute);
    out += ',';
    AppendCsvValue(&out, e.old_value);
    out += ',';
    AppendCsvValue(&out, e.new_value);
    out += ',';
    data::AppendCsvQuoted(&out, e.phase);
    out += ',';
    data::AppendCsvQuoted(&out, e.rule);
    out += '\n';
  }
  return out;
}

Status FixJournal::WriteCsv(std::ostream& out) const {
  out << ToCsv();
  if (!out.good()) return Status::Internal("fix journal write failed");
  return Status::OK();
}

Status FixJournal::WriteTextFile(const std::string& path) const {
  return WriteToFile(path, [this](std::ostream& out) { return WriteText(out); });
}

Status FixJournal::WriteCsvFile(const std::string& path) const {
  return WriteToFile(path, [this](std::ostream& out) { return WriteCsv(out); });
}

}  // namespace uniclean
