// cRepair (§5, Figs. 4-5): deterministic fixes with data confidence. A
// cleaning rule is applied to a tuple only when every premise attribute is
// asserted (confidence >= η) and the target attribute is not; the written
// cell is then itself asserted (cf := η, per Fig. 5 / Example 5.2) and the
// change propagates recursively through the per-tuple queues.

#ifndef UNICLEAN_CORE_CREPAIR_H_
#define UNICLEAN_CORE_CREPAIR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/fix_observer.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "data/relation.h"
#include "rules/ruleset.h"

namespace uniclean {
namespace core {

struct CRepairOptions {
  /// Confidence threshold η: cells at or above are asserted correct.
  double eta = 0.8;
  /// Optional per-fix callback (see fix_observer.h); called exactly once per
  /// deterministic fix, with the rule that produced it.
  FixObserver on_fix;
  /// Optional cooperative-cancellation token, polled between committed fixes
  /// (never mid-write). On trip the run stops early and reports the token's
  /// status in CRepairStats::interrupt; the relation keeps every fix applied
  /// so far and nothing torn.
  const common::CancelToken* cancel = nullptr;
};

struct CRepairStats {
  /// Cells whose value changed, marked FixMark::kDeterministic.
  int deterministic_fixes = 0;
  /// Cells whose value was confirmed by a rule and upgraded to cf = η
  /// without changing (Fig. 5 assigns unconditionally; only real changes are
  /// counted as fixes).
  int confidence_upgrades = 0;
  /// Rule pops from the per-tuple queues (diagnostics).
  int64_t rule_applications = 0;
  /// Asserted-vs-asserted disagreements encountered (the paper assumes
  /// confidence is placed correctly, so these indicate bad confidence).
  int conflicts = 0;
  /// Record matches identified while cleaning: (data tuple, master tuple)
  /// pairs whose MD premise held when an MD rule was applied. Used by the
  /// Exp-2 evaluation ("repairing helps matching").
  std::vector<std::pair<data::TupleId, data::TupleId>> md_matches;
  /// OK for a completed run; DeadlineExceeded/Cancelled when
  /// CRepairOptions::cancel tripped and the run stopped early.
  Status interrupt;
};

/// Runs cRepair in place: fixes cells of `d`, upgrades their confidence and
/// marks them deterministic. Returns statistics. Tombstoned tuples
/// (data::Relation::EraseTuple) are skipped. Borrows the shared match
/// environment (master relation, rules, warm MD indexes and memos); its
/// options govern MD candidate retrieval (suffix-array blocking, §5.2).
/// MD probes go through `matches`, the run's table over `d` and `env`
/// (uniclean::Session passes one to every phase); when null, the call
/// builds its own.
CRepairStats CRepair(data::Relation* d, const MatchEnvironment& env,
                     const CRepairOptions& options = {},
                     RunMatchTable* matches = nullptr);

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_CREPAIR_H_
