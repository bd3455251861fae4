// hRepair (§7): heuristic "possible" fixes that make the database fully
// consistent. Extends the equivalence-class method of [Cong et al. 2007]
// with (a) matching against master data via MDs, (b) preservation of the
// deterministic fixes from cRepair (frozen classes), and (c) retention of
// reliable fixes whenever possible. Violations are resolved by the cheapest
// option under the §3.1 cost model:
//   * constant CFD:   write the pattern constant into the RHS class, or
//                     break the pattern match by nulling an LHS cell;
//   * variable CFD:   merge the two RHS classes (keeping the cheaper value),
//                     or null an LHS cell of one side;
//   * MD:             write the master value into the data class, or break
//                     the premise by nulling a premise cell.
// Targets only ever move up the lattice unfixed -> constant -> null and
// merges reduce the class count, so the process terminates (§7), with
// Dr |= Σ and (Dr, Dm) |= Γ under the §7 null semantics.
//
// What a pass re-examines: for a constant CFD, the tuples whose classes
// changed since the rule's previous scan began; for an MD, the tuples whose
// classes changed in this pass or the previous one; for a variable CFD, only
// the groups with a member whose class changed since the rule last ran,
// plus any later group a merge in the same call rewrites (the groups, and
// the touch clock all three use, live in a core::VcfdGroups index for the
// whole run). Every change to a class touches each member's tuple, and a
// violation's options are priced from its tuples' classes alone. So a tuple
// or group left untouched holds what its last examination found: no
// violation, or only conflicts no option can resolve, which the pass counts
// as anomalies again, as a full re-examination would. A constant CFD keeps
// which tuples its last scan counted for that.
//
// What a run reuses besides: MD probes go through the run's
// core::RunMatchTable, which answers a tuple whose premise is unchanged
// without probing the shared memo again; each group's RHS votes are counted
// in one sorted scratch reused across groups; and core::EquivalenceClasses
// keeps members in flat intrusive lists whose order is the join order, so
// the cost sums are added in the same order as ever.

#ifndef UNICLEAN_CORE_HREPAIR_H_
#define UNICLEAN_CORE_HREPAIR_H_

#include "common/cancellation.h"
#include "common/status.h"
#include "core/fix_observer.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "data/relation.h"
#include "rules/ruleset.h"

namespace uniclean {
namespace core {

struct HRepairOptions {
  /// Optional per-fix callback (see fix_observer.h); called once per possible
  /// fix — i.e. per cell whose final value differs from the phase input —
  /// with the rule that last retargeted the cell's equivalence class.
  FixObserver on_fix;
  /// Optional cooperative-cancellation token, polled between rule
  /// resolutions. hRepair observes its fixes only once the fixpoint is
  /// reached, so on trip the phase rolls the relation back to its entry
  /// state (it already keeps a clone for the cost model): zero fixes
  /// committed, HRepairStats::interrupt set, never a torn relation.
  const common::CancelToken* cancel = nullptr;
};

struct HRepairStats {
  /// Record matches identified while cleaning (see CRepairStats).
  std::vector<std::pair<data::TupleId, data::TupleId>> md_matches;
  /// Cells whose final value differs from the phase input, marked
  /// FixMark::kPossible.
  int possible_fixes = 0;
  /// Equivalence-class merges performed.
  int merges = 0;
  /// Cells set to null to break otherwise-unresolvable conflicts.
  int nulls_introduced = 0;
  /// Passes over the rule set until no violations remained.
  int passes = 0;
  /// Violations that could not be resolved (conflicting frozen classes —
  /// indicates contradictory deterministic fixes; 0 for consistent input),
  /// counted once per pass in which they were found.
  int anomalies = 0;
  /// OK for a completed run; DeadlineExceeded/Cancelled when
  /// HRepairOptions::cancel tripped (the relation was rolled back to the
  /// phase's entry state).
  Status interrupt;
};

/// Runs hRepair in place; returns statistics. After the call (with zero
/// anomalies), the live tuples of `*d` satisfy every CFD and MD of the
/// environment's rules w.r.t. its master relation (tombstoned tuples are
/// skipped). Borrows the shared match environment instead of building
/// per-run matchers. MD probes go through `matches`, the run's table over
/// `d` and `env`; when null, the call builds its own.
HRepairStats HRepair(data::Relation* d, const MatchEnvironment& env,
                     const HRepairOptions& options = {},
                     RunMatchTable* matches = nullptr);

}  // namespace core
}  // namespace uniclean

#endif  // UNICLEAN_CORE_HREPAIR_H_
