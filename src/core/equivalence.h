// Equivalence classes over cells (t, A) with target values, the §7 machinery
// (after [Cong et al. 2007; Bohannon et al. 2005]): every cell belongs to a
// class; a repair assigns each class one target value targ(E) which is
// either not-yet-fixed, a constant, or null. Resolving violations merges
// classes or upgrades targets along the lattice
//     unfixed -> constant -> null
// (never constant -> different constant), which makes the repair process
// terminate. Classes containing a deterministic fix are frozen: their
// constant can never change (Corollary 7.1 preserves cRepair's output).
//
// Invariant: a class with more than one member always has a constant or
// null target (merging picks a winner immediately), so the materialized
// view is always well defined.
//
// Members are kept in flat arrays, not one vector per cell: every cell has
// a next_ link, and a class's list begins at its root (a cell starts as the
// root of its own one-cell list, and a merge appends the child root's list
// to the surviving root's). The root's ClassInfo holds the list's tail and
// size. So Members() yields the cells in the order they joined, root's list
// first, exactly as concatenating per-class vectors did; hRepair's
// ClassRetargetCost sums floating-point cell costs in that order, so it must
// not change.

#ifndef UNICLEAN_CORE_EQUIVALENCE_H_
#define UNICLEAN_CORE_EQUIVALENCE_H_

#include <vector>

#include "common/check.h"
#include "data/relation.h"

namespace uniclean {
namespace core {

/// Dense id of a cell: t * arity + a.
using CellId = int;

/// The lattice state of a class target.
enum class TargetKind { kUnfixed, kConstant, kNull };

class EquivalenceClasses {
 public:
  EquivalenceClasses(int num_tuples, int arity);

  CellId Cell(data::TupleId t, data::AttributeId a) const {
    return t * arity_ + a;
  }
  data::TupleId TupleOf(CellId c) const { return c / arity_; }
  data::AttributeId AttrOf(CellId c) const { return c % arity_; }

  /// Class representative (union-find with path compression).
  CellId Find(CellId c);

  TargetKind target_kind(CellId c) { return info(Find(c)).kind; }
  const data::Value& target_constant(CellId c) {
    ClassInfo& ci = info(Find(c));
    UC_CHECK(ci.kind == TargetKind::kConstant);
    return ci.constant;
  }
  bool frozen(CellId c) { return info(Find(c)).frozen; }

  /// The cells of one class, as a forward range over the intrusive list.
  class MemberRange {
   public:
    class Iterator {
     public:
      Iterator(const std::vector<CellId>& next, CellId cell)
          : next_(&next), cell_(cell) {}
      CellId operator*() const { return cell_; }
      Iterator& operator++() {
        cell_ = (*next_)[static_cast<size_t>(cell_)];
        return *this;
      }
      bool operator!=(const Iterator& o) const { return cell_ != o.cell_; }

     private:
      const std::vector<CellId>* next_;
      CellId cell_;
    };

    MemberRange(const std::vector<CellId>& next, CellId root, int size)
        : next_(next), root_(root), size_(size) {}
    Iterator begin() const { return Iterator(next_, root_); }
    Iterator end() const { return Iterator(next_, -1); }
    size_t size() const { return static_cast<size_t>(size_); }

   private:
    const std::vector<CellId>& next_;
    CellId root_;
    int size_;
  };

  /// Cells of the class containing `c`, in the order they joined it (see
  /// the file comment). Valid until the next Merge.
  MemberRange Members(CellId c) {
    const CellId root = Find(c);
    return MemberRange(next_, root, info(root).size);
  }

  /// Freezes the class of `c` to the constant `v` (deterministic fixes).
  /// Requires the class to be unfrozen or frozen to the same value.
  void Freeze(CellId c, const data::Value& v);

  /// Sets / upgrades the target: unfixed -> v; constant v -> no-op;
  /// constant w != v -> null (upgrade); null stays null. Returns false (and
  /// changes nothing) if the class is frozen to a different constant.
  bool SetConstant(CellId c, const data::Value& v);

  /// Upgrades the target to null. Returns false if the class is frozen.
  bool SetNull(CellId c);

  /// Merges the classes of `a` and `b` and resolves their targets:
  /// frozen wins over anything (two frozen classes must agree — otherwise
  /// returns false and changes nothing); otherwise the constant `winner`
  /// becomes the target (callers pick the cheaper side); null wins over all
  /// non-frozen targets. Returns true on success.
  bool Merge(CellId a, CellId b, const data::Value& winner);

  int num_classes() const { return num_classes_; }

 private:
  struct ClassInfo {
    TargetKind kind = TargetKind::kUnfixed;
    data::Value constant;
    bool frozen = false;
    CellId tail = -1;  // last cell of the member list
    int size = 1;      // cells in the member list
  };

  ClassInfo& info(CellId root) {
    return info_[static_cast<size_t>(root)];
  }

  int arity_;
  int num_classes_;
  std::vector<CellId> parent_;
  std::vector<int> rank_;
  std::vector<ClassInfo> info_;  // valid at roots
  std::vector<CellId> next_;     // per cell: next member of its class, or -1
};

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_EQUIVALENCE_H_
