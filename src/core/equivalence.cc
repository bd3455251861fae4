#include "core/equivalence.h"

#include <utility>

namespace uniclean {
namespace core {

EquivalenceClasses::EquivalenceClasses(int num_tuples, int arity)
    : arity_(arity), num_classes_(num_tuples * arity) {
  const size_t n = static_cast<size_t>(num_classes_);
  parent_.resize(n);
  rank_.assign(n, 0);
  info_.resize(n);
  next_.assign(n, -1);
  for (CellId c = 0; c < num_classes_; ++c) {
    parent_[static_cast<size_t>(c)] = c;
    info_[static_cast<size_t>(c)].tail = c;
  }
}

CellId EquivalenceClasses::Find(CellId c) {
  CellId root = c;
  while (parent_[static_cast<size_t>(root)] != root) {
    root = parent_[static_cast<size_t>(root)];
  }
  while (parent_[static_cast<size_t>(c)] != root) {
    CellId next = parent_[static_cast<size_t>(c)];
    parent_[static_cast<size_t>(c)] = root;
    c = next;
  }
  return root;
}

void EquivalenceClasses::Freeze(CellId c, const data::Value& v) {
  ClassInfo& ci = info(Find(c));
  UC_CHECK(!ci.frozen || ci.constant == v)
      << "conflicting deterministic fixes in one equivalence class";
  ci.kind = TargetKind::kConstant;
  ci.constant = v;
  ci.frozen = true;
}

bool EquivalenceClasses::SetConstant(CellId c, const data::Value& v) {
  ClassInfo& ci = info(Find(c));
  if (ci.frozen) return ci.constant == v;
  switch (ci.kind) {
    case TargetKind::kUnfixed:
      ci.kind = TargetKind::kConstant;
      ci.constant = v;
      return true;
    case TargetKind::kConstant:
      if (ci.constant == v) return true;
      ci.kind = TargetKind::kNull;  // constant -> different constant: upgrade
      ci.constant = data::Value();
      return true;
    case TargetKind::kNull:
      return true;
  }
  return true;
}

bool EquivalenceClasses::SetNull(CellId c) {
  ClassInfo& ci = info(Find(c));
  if (ci.frozen) return false;
  ci.kind = TargetKind::kNull;
  ci.constant = data::Value();
  return true;
}

bool EquivalenceClasses::Merge(CellId a, CellId b, const data::Value& winner) {
  CellId ra = Find(a);
  CellId rb = Find(b);
  if (ra == rb) {
    // Already one class; just (try to) set the winner.
    return SetConstant(ra, winner);
  }
  ClassInfo& ia = info(ra);
  ClassInfo& ib = info(rb);
  if (ia.frozen && ib.frozen) {
    if (ia.constant != ib.constant) return false;
  }
  // Resolve the merged target before the union.
  ClassInfo merged;
  merged.frozen = ia.frozen || ib.frozen;
  if (ia.frozen) {
    merged.kind = TargetKind::kConstant;
    merged.constant = ia.constant;
  } else if (ib.frozen) {
    merged.kind = TargetKind::kConstant;
    merged.constant = ib.constant;
  } else if (ia.kind == TargetKind::kNull || ib.kind == TargetKind::kNull) {
    merged.kind = TargetKind::kNull;
  } else {
    merged.kind = TargetKind::kConstant;
    merged.constant = winner;
  }
  // Union by rank.
  CellId root = ra;
  CellId child = rb;
  if (rank_[static_cast<size_t>(ra)] < rank_[static_cast<size_t>(rb)]) {
    root = rb;
    child = ra;
  } else if (rank_[static_cast<size_t>(ra)] ==
             rank_[static_cast<size_t>(rb)]) {
    ++rank_[static_cast<size_t>(ra)];
  }
  parent_[static_cast<size_t>(child)] = root;
  ClassInfo& rc = info(root);
  const ClassInfo& cc = info(child);
  // The child's list begins at the child: append it to the root's.
  next_[static_cast<size_t>(rc.tail)] = child;
  merged.tail = cc.tail;
  merged.size = rc.size + cc.size;
  rc = merged;
  --num_classes_;
  return true;
}

}  // namespace core
}  // namespace uniclean
