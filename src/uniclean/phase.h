// The phases of the paper's UniClean pipeline (Fig. 2):
//   1. cRepair  — deterministic fixes from confidence + master data (§5),
//   2. eRepair  — reliable fixes from entropy (§6),
//   3. hRepair  — possible fixes from heuristics, yielding a repair with
//                 Dr |= Σ and (Dr, Dm) |= Γ (§7).
// A session runs the engine's selected phases once each, in this order: no
// iteration between phases is needed (the Remark at the end of §3.2).
// EngineBuilder::WithDefaultPhases selects the subset; every modified cell
// carries a FixMark naming the phase that produced it, and every fix is
// journaled with its justifying rule. This header holds what the pipeline
// reports: per-phase statistics and the progress events.

#ifndef UNICLEAN_UNICLEAN_PHASE_H_
#define UNICLEAN_UNICLEAN_PHASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/md_matcher.h"
#include "data/relation.h"

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

/// One phase of the pipeline, in paper order.
enum class Phase { kCRepair, kERepair, kHRepair };

/// The phase's display name, also recorded in journal entries and
/// PhaseStats::phase: "cRepair", "eRepair" or "hRepair".
constexpr std::string_view PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kCRepair:
      return "cRepair";
    case Phase::kERepair:
      return "eRepair";
    case Phase::kHRepair:
      return "hRepair";
  }
  return "";
}

/// What one phase did. Session::Run() collects one per executed phase.
struct PhaseStats {
  /// Phase name (PhaseName).
  std::string phase;
  /// Cells this phase changed (fix events; matches the phase's journal
  /// entry count).
  int fixes = 0;
  /// Record matches identified while cleaning: (data tuple, master tuple).
  /// Each distinct pair is listed once, sorted, however often the phase
  /// matched it.
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

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_PHASE_H_
