// Phase: the pluggable unit of a Session's pipeline. The paper's Fig. 2
// phases (cRepair / eRepair / hRepair, see builtin_phases.h) are the
// default implementations; additional phases — a probabilistic repair pass,
// a rule-discovery preprocessor, a custom validator — implement the same
// two-method interface and are registered as per-session factories through
// EngineBuilder::WithPhaseFactories / AddPhaseFactory.

#ifndef UNICLEAN_UNICLEAN_PHASE_H_
#define UNICLEAN_UNICLEAN_PHASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "core/match_environment.h"
#include "core/md_matcher.h"
#include "data/relation.h"
#include "rules/ruleset.h"
#include "uniclean/fix_journal.h"

namespace uniclean {

/// Validated pipeline thresholds, shared by all phases.
struct PipelineConfig {
  /// Confidence threshold η (§5), in [0, 1].
  double eta = 0.8;
  /// Update threshold δ1 (§6), >= 0.
  int delta1 = 5;
  /// Entropy threshold δ2 (§6), in [0, 1].
  double delta2 = 0.8;
  /// Suffix-array blocking configuration for MD matching (§5.2).
  core::MdMatcherOptions matcher;
};

/// Everything a phase may read or mutate during one Session::Run(). The
/// relations and rules outlive the run; `data` is cleaned in place.
struct PipelineContext {
  data::Relation* data = nullptr;
  const data::Relation* master = nullptr;
  const rules::RuleSet* rules = nullptr;
  PipelineConfig config;
  /// Fix provenance sink; phases append one entry per fix. Never null
  /// during a Session::Run().
  FixJournal* journal = nullptr;
  /// The engine's shared match environment: one warm MdMatcher (index +
  /// memos) per distinct MD premise, scoped to (rules, master). Never null
  /// during a Session::Run() — built once per engine lifetime and reused by
  /// every phase of every session, so user phases should probe MDs through
  /// `match_env->matcher(rule)` rather than constructing their own matcher.
  /// Rules with equal premises get the same matcher, so a capped or
  /// memo-less Matches() reference fetched for one of them is overwritten by
  /// the same thread's next probe for any of them (see MdMatcher::Matches).
  const core::MatchEnvironment* match_env = nullptr;
  /// Optional cooperative-cancellation token (null = uncancellable). The
  /// executor polls it between phases; the built-in phases forward it into
  /// the repair engines, which poll between committed fixes. User phases
  /// should honour it too: `UC_RETURN_IF_ERROR(common::PollCancel(cancel))`
  /// at convenient safe points.
  const common::CancelToken* cancel = nullptr;
};

/// What one phase did. Session::Run() collects one per executed phase.
struct PhaseStats {
  /// Phase name; filled in by the Session from Phase::name().
  std::string phase;
  /// Cells this phase changed (fix events; matches the phase's journal
  /// entry count for the built-in phases).
  int fixes = 0;
  /// Record matches identified while cleaning: (data tuple, master tuple).
  /// The built-in phases list each distinct pair once, sorted, however
  /// often they matched it.
  std::vector<std::pair<data::TupleId, data::TupleId>> matches;
  /// Phase-specific diagnostic counters, e.g. ("conflicts", 2).
  std::vector<std::pair<std::string, int64_t>> counters;

  /// Value of a named counter, 0 when absent.
  int64_t counter(std::string_view name) const {
    for (const auto& [key, value] : counters) {
      if (key == name) return value;
    }
    return 0;
  }
};

/// One pipeline stage. Implementations must tolerate any data state their
/// predecessors may leave (phases are user-orderable) and report expected
/// failures through the returned Result rather than aborting.
class Phase {
 public:
  virtual ~Phase() = default;

  /// Stable display name, e.g. "cRepair". Also recorded in journal entries.
  virtual std::string_view name() const = 0;

  /// Executes the phase against `ctx->data`. A non-OK status aborts the
  /// pipeline and propagates out of Session::Run().
  virtual Result<PhaseStats> Run(PipelineContext* ctx) = 0;
};

/// Progress notification delivered to Session::set_progress_callback's
/// observer before and after every phase.
struct PhaseEvent {
  enum class Kind { kPhaseStarted, kPhaseFinished };
  Kind kind = Kind::kPhaseStarted;
  /// 0-based phase index and pipeline length.
  int index = 0;
  int total = 0;
  std::string_view phase;
  /// Stats of the finished phase; null for kPhaseStarted.
  const PhaseStats* stats = nullptr;
  /// The pipeline's data relation in its current state.
  const data::Relation* data = nullptr;
};

using ProgressCallback = std::function<void(const PhaseEvent&)>;

/// Creates one fresh Phase instance. A CleanEngine stores factories rather
/// than phase objects so every NewSession() gets its own instances and
/// stateful phases never race across concurrent sessions. Factories must be
/// callable from any thread (NewSession is thread-safe) and must not share
/// mutable state between the phases they create.
using PhaseFactory = std::function<std::unique_ptr<Phase>()>;

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_PHASE_H_
