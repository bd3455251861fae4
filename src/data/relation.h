// Relation: an in-memory instance of a schema. Each cell carries, alongside
// its value, the user-placed confidence (the `cf` rows of Fig. 1(b)) and a
// FixMark recording which cleaning phase last wrote it (§3.2: UniClean marks
// fixes deterministic / reliable / possible).

#ifndef UNICLEAN_DATA_RELATION_H_
#define UNICLEAN_DATA_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "data/schema.h"
#include "data/value.h"

namespace uniclean {
namespace data {

/// Index of a tuple within a relation.
using TupleId = int;

/// Provenance of a cell's current value (§3.2).
enum class FixMark : unsigned char {
  kNone = 0,          ///< untouched original value
  kDeterministic = 1, ///< written by cRepair (confidence-based, §5)
  kReliable = 2,      ///< written by eRepair (entropy-based, §6)
  kPossible = 3,      ///< written by hRepair (heuristic, §7)
};

const char* FixMarkToString(FixMark mark);

/// One tuple: values plus parallel per-cell confidence and fix marks.
class Tuple {
 public:
  explicit Tuple(int arity)
      : values_(static_cast<size_t>(arity)),
        confidence_(static_cast<size_t>(arity), 0.0),
        marks_(static_cast<size_t>(arity), FixMark::kNone) {}

  Tuple(std::vector<Value> values, std::vector<double> confidence)
      : values_(std::move(values)),
        confidence_(std::move(confidence)),
        marks_(values_.size(), FixMark::kNone) {
    UC_CHECK_EQ(values_.size(), confidence_.size());
  }

  int arity() const { return static_cast<int>(values_.size()); }

  const Value& value(AttributeId a) const { return values_[Check(a)]; }
  double confidence(AttributeId a) const { return confidence_[Check(a)]; }
  FixMark mark(AttributeId a) const { return marks_[Check(a)]; }

  void set_value(AttributeId a, Value v) { values_[Check(a)] = std::move(v); }
  void set_confidence(AttributeId a, double cf) { confidence_[Check(a)] = cf; }
  void set_mark(AttributeId a, FixMark m) { marks_[Check(a)] = m; }

  const std::vector<Value>& values() const { return values_; }

  /// True if the projections on `attrs` are pairwise equal (strict equality).
  bool ProjectionEquals(const Tuple& other,
                        const std::vector<AttributeId>& attrs) const;

 private:
  size_t Check(AttributeId a) const {
    UC_CHECK_GE(a, 0);
    UC_CHECK_LT(static_cast<size_t>(a), values_.size());
    return static_cast<size_t>(a);
  }

  std::vector<Value> values_;
  std::vector<double> confidence_;
  std::vector<FixMark> marks_;
};

/// An instance of a schema: an ordered bag of tuples.
class Relation {
 public:
  explicit Relation(SchemaPtr schema) : schema_(std::move(schema)) {
    UC_CHECK(schema_ != nullptr);
  }

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }

  int size() const { return static_cast<int>(tuples_.size()); }
  bool empty() const { return tuples_.empty(); }

  const Tuple& tuple(TupleId t) const { return tuples_[CheckId(t)]; }
  Tuple& mutable_tuple(TupleId t) { return tuples_[CheckId(t)]; }

  /// Appends a tuple; returns its id. The tuple arity must match the schema.
  TupleId AddTuple(Tuple tuple);

  /// Makes room for `n` tuples, so appending up to that many moves no
  /// tuple and leaves no slack past `n`.
  void Reserve(int n) {
    tuples_.reserve(static_cast<size_t>(n));
    if (!dead_.empty()) dead_.reserve(static_cast<size_t>(n));
  }

  /// Appends a tuple built from string values with a uniform confidence.
  TupleId AddRow(const std::vector<std::string>& values,
                 double confidence = 0.0);

  /// Tombstones a tuple: the slot stays (ids never shift — journal entries
  /// and incremental-delta bookkeeping key on them) but live(t) turns false
  /// and every cleaning engine skips the tuple. Re-inserting content after a
  /// deletion is an AddTuple, which mints a fresh id; tombstoned ids are
  /// never reused. Idempotent.
  void EraseTuple(TupleId t) {
    CheckId(t);
    if (dead_.empty()) dead_.assign(tuples_.size(), 0);
    dead_[static_cast<size_t>(t)] = 1;
  }

  /// False once EraseTuple(t) was called. The common all-live case costs one
  /// emptiness check (the tombstone vector is allocated lazily).
  bool live(TupleId t) const {
    return dead_.empty() || dead_[CheckId(t)] == 0;
  }

  /// Number of live (non-tombstoned) tuples; == size() when nothing was
  /// erased.
  int live_size() const;

  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Deep copy (used to produce candidate repairs without touching D).
  Relation Clone() const { return *this; }

  /// Number of cells whose value differs from `other` (same schema & size).
  /// Nulls compare strictly. Useful in tests and metrics.
  int CellDiffCount(const Relation& other) const;

 private:
  size_t CheckId(TupleId t) const {
    UC_CHECK_GE(t, 0);
    UC_CHECK_LT(static_cast<size_t>(t), tuples_.size());
    return static_cast<size_t>(t);
  }

  SchemaPtr schema_;
  std::vector<Tuple> tuples_;
  // Tombstone marks, parallel to tuples_ once any EraseTuple happened;
  // empty (no allocation) for the common all-live relation. Clone() copies
  // it, so a cloned relation preserves liveness.
  std::vector<uint8_t> dead_;
};

}  // namespace data
}  // namespace uniclean

#endif  // UNICLEAN_DATA_RELATION_H_
