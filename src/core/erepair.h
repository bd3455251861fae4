// eRepair (§6, Fig. 6): reliable fixes with information entropy. Rules are
// applied in the dependency-graph order of §6.2; conflicts among the tuples
// of a variable-CFD group ∆(ȳ) are resolved to the majority value when the
// group's entropy H(ϕ|Y=ȳ) is below the threshold δ2; each cell may be
// rewritten at most δ1 times ("update threshold"), which bounds oscillation
// and guarantees termination. Deterministic fixes from cRepair are never
// overwritten, and neither are asserted cells (cf >= η).
//
// What a pass re-examines: for a constant CFD, the tuples fixed since the
// rule's previous scan began; for an MD, the tuples fixed in this pass or
// the previous one; for a variable CFD, only the groups whose members
// changed since the rule last ran (the groups, and the touch clock all
// three use, live in a core::VcfdGroups index for the whole run). A
// constant-CFD violation is a function of its own tuple's cells, marks and
// rewrite count, and only a fix changes those and touches the tuple, so a
// tuple the previous scan left alone would be left alone again. A group
// that stayed clean would resolve to nothing, so the pass only counts it
// again, as resolved or as skipped, exactly as a full re-examination would.
// MD probes go through the run's core::RunMatchTable, which answers a tuple
// whose premise is unchanged without probing the shared memo again.

#ifndef UNICLEAN_CORE_EREPAIR_H_
#define UNICLEAN_CORE_EREPAIR_H_

#include "common/cancellation.h"
#include "common/status.h"
#include "core/fix_observer.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "data/relation.h"
#include "rules/ruleset.h"

namespace uniclean {
namespace core {

struct ERepairOptions {
  /// Update threshold δ1: maximum rewrites per cell.
  int delta1 = 5;
  /// Entropy threshold δ2: groups with H(ϕ|Y=ȳ) < δ2 are resolved.
  double delta2 = 0.8;
  /// Cells with confidence >= eta are treated as asserted and not modified.
  double eta = 0.8;
  /// Optional per-fix callback (see fix_observer.h); called once per reliable
  /// fix — a cell rewritten twice produces two calls.
  FixObserver on_fix;
  /// Optional cooperative-cancellation token, polled between rule
  /// resolutions (never mid-write). On trip the run stops early with
  /// ERepairStats::interrupt set; every fix applied so far was observed,
  /// nothing is torn.
  const common::CancelToken* cancel = nullptr;
};

struct ERepairStats {
  /// Record matches identified while cleaning (see CRepairStats).
  std::vector<std::pair<data::TupleId, data::TupleId>> md_matches;
  /// Cells rewritten and marked FixMark::kReliable.
  int reliable_fixes = 0;
  /// Variable-CFD groups resolved via entropy, counted once per pass in
  /// which the group had conflicting values and entropy < δ2 (whether or not
  /// a cell was still changeable).
  int groups_resolved = 0;
  /// Groups left alone because their entropy was >= δ2, counted once per
  /// pass as well.
  int groups_skipped_high_entropy = 0;
  /// Full passes over the rule order until fixpoint.
  int passes = 0;
  /// OK for a completed run; DeadlineExceeded/Cancelled when
  /// ERepairOptions::cancel tripped and the run stopped early.
  Status interrupt;
};

/// Entropy of a variable CFD for one group (§6.1):
///   H = Σ_i (c_i/n) * log_k(n/c_i)
/// where the c_i are the frequencies of the k distinct RHS values and
/// n = Σ c_i. H is 0 when the group agrees (k = 1) and 1 when all values
/// are equally frequent. `counts` must be non-empty with positive entries.
double GroupEntropy(const std::vector<int>& counts);

/// Runs eRepair in place; returns statistics. Tombstoned tuples
/// (data::Relation::EraseTuple) are skipped — they join no group and are
/// never rewritten. Borrows the shared match environment (master relation,
/// rules, warm MD indexes and memos) instead of building per-run matchers.
/// MD probes go through `matches`, the run's table over `d` and `env`; when
/// null, the call builds its own.
ERepairStats ERepair(data::Relation* d, const MatchEnvironment& env,
                     const ERepairOptions& options = {},
                     RunMatchTable* matches = nullptr);

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_EREPAIR_H_
