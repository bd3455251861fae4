// The three built-in phases of the paper's UniClean pipeline (Fig. 2),
// wrapped as Phase implementations:
//   1. cRepair  — deterministic fixes from confidence + master data (§5),
//   2. eRepair  — reliable fixes from entropy (§6),
//   3. hRepair  — possible fixes from heuristics, yielding a repair with
//                 Dr |= Σ and (Dr, Dm) |= Γ (§7).
// A default session runs them once each, in this order: no iteration
// between phases is needed (the Remark at the end of §3.2). Every modified
// cell carries a FixMark naming the phase that produced it. Each phase
// forwards the PipelineContext thresholds to its core engine and journals
// every fix with the justifying rule.

#ifndef UNICLEAN_UNICLEAN_BUILTIN_PHASES_H_
#define UNICLEAN_UNICLEAN_BUILTIN_PHASES_H_

#include <memory>
#include <string_view>
#include <vector>

#include "core/crepair.h"
#include "core/erepair.h"
#include "core/hrepair.h"
#include "uniclean/phase.h"

namespace uniclean {

/// Deterministic fixes with data confidence (§5).
class CRepairPhase : public Phase {
 public:
  static constexpr std::string_view kName = "cRepair";
  std::string_view name() const override { return kName; }
  Result<PhaseStats> Run(PipelineContext* ctx) override;
};

/// Reliable fixes with information entropy (§6).
class ERepairPhase : public Phase {
 public:
  static constexpr std::string_view kName = "eRepair";
  std::string_view name() const override { return kName; }
  Result<PhaseStats> Run(PipelineContext* ctx) override;
};

/// Heuristic possible fixes yielding a consistent repair (§7).
class HRepairPhase : public Phase {
 public:
  static constexpr std::string_view kName = "hRepair";
  std::string_view name() const override { return kName; }
  Result<PhaseStats> Run(PipelineContext* ctx) override;
};

/// The default pipeline as per-session factories: the selected subset of
/// cRepair → eRepair → hRepair in paper order. A CleanEngine stores
/// factories so every NewSession() gets fresh phase instances.
std::vector<PhaseFactory> MakeDefaultPhaseFactories(bool crepair = true,
                                                    bool erepair = true,
                                                    bool hrepair = true);

}  // namespace uniclean

#endif  // UNICLEAN_UNICLEAN_BUILTIN_PHASES_H_
