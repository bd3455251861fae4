#include "uniclean/fix_journal.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <utility>

#include "data/csv.h"

namespace uniclean {

namespace {

/// Renders a value the way data/csv.cc's writer does.
std::string CsvValue(const data::Value& v) {
  return v.is_null() ? std::string(data::kNullToken) : data::CsvQuote(v.str());
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

int FixJournal::CountForGeneration(int generation) const {
  int count = 0;
  for (const FixEntry& e : entries_) {
    if (e.generation == generation) ++count;
  }
  return count;
}

FixJournal FixJournal::Canonicalized() const {
  // Chain the entries per cell in append order, keeping one net entry from
  // the first old value to the last new value, attributed to the final
  // writer. Cells whose chain nets to no change drop out: the canonical
  // journal is the set of repairs the journal stands behind, not the
  // derivation trace (two runs that reach the same repairs through
  // different intermediate rewrites must canonicalize identically).
  FixJournal canonical;
  std::map<std::pair<data::TupleId, std::string>, size_t> cell_entry;
  for (const FixEntry& e : entries_) {
    auto [it, inserted] =
        cell_entry.try_emplace({e.tuple, e.attribute}, canonical.size());
    if (inserted) {
      canonical.entries_.push_back(e);
    } else {
      FixEntry& net = canonical.entries_[it->second];
      net.new_value = e.new_value;
      net.phase = e.phase;
      net.rule = e.rule;
    }
  }
  canonical.entries_.erase(
      std::remove_if(canonical.entries_.begin(), canonical.entries_.end(),
                     [](const FixEntry& e) {
                       return e.old_value == e.new_value ||
                              (e.old_value.is_null() && e.new_value.is_null());
                     }),
      canonical.entries_.end());
  std::stable_sort(canonical.entries_.begin(), canonical.entries_.end(),
                   [](const FixEntry& a, const FixEntry& b) {
                     if (a.tuple != b.tuple) return a.tuple < b.tuple;
                     return a.attribute < b.attribute;
                   });
  for (FixEntry& e : canonical.entries_) e.generation = 0;
  return canonical;
}

std::string FixJournal::CanonicalFixSetCsv() const {
  std::string out = "tuple,attribute,old,new\n";
  for (const FixEntry& e : Canonicalized().entries_) {
    out += std::to_string(e.tuple);
    out += ',';
    out += data::CsvQuote(e.attribute);
    out += ',';
    out += CsvValue(e.old_value);
    out += ',';
    out += CsvValue(e.new_value);
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
    // Batch entries keep the historic line format; only delta entries grow
    // the generation marker.
    if (e.generation != 0) out << " gen " << e.generation;
    out << "]\n";
  }
  if (!out.good()) return Status::Internal("fix journal write failed");
  return Status::OK();
}

Status FixJournal::WriteCsv(std::ostream& out) const {
  bool with_generation = false;
  for (const FixEntry& e : entries_) {
    if (e.generation != 0) {
      with_generation = true;
      break;
    }
  }
  out << (with_generation ? "tuple,attribute,old,new,phase,rule,generation\n"
                          : "tuple,attribute,old,new,phase,rule\n");
  for (const FixEntry& e : entries_) {
    out << e.tuple << ',' << data::CsvQuote(e.attribute) << ','
        << CsvValue(e.old_value) << ',' << CsvValue(e.new_value) << ','
        << data::CsvQuote(e.phase) << ',' << data::CsvQuote(e.rule);
    if (with_generation) out << ',' << e.generation;
    out << '\n';
  }
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
