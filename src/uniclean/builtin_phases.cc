#include "uniclean/builtin_phases.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace uniclean {

namespace {

/// A FixObserver that appends journal entries under the given phase name,
/// resolving rule ids to names against the run's rule set.
core::FixObserver JournalObserver(PipelineContext* ctx,
                                  std::string_view phase) {
  if (ctx->journal == nullptr) return nullptr;
  FixJournal* journal = ctx->journal;
  const rules::RuleSet* rules = ctx->rules;
  const data::Relation* data = ctx->data;
  return [journal, rules, data, phase](data::TupleId t, data::AttributeId a,
                                       const data::Value& old_value,
                                       const data::Value& new_value,
                                       rules::RuleId rule) {
    FixEntry entry;
    entry.tuple = t;
    entry.attr = a;
    entry.attribute = data->schema().attribute_name(a);
    entry.old_value = old_value;
    entry.new_value = new_value;
    entry.phase = std::string(phase);
    if (rule >= 0 && rule < rules->num_rules()) {
      entry.rule = rules->rule_name(rule);
    }
    journal->Append(std::move(entry));
  };
}

/// The distinct pairs of an engine's match log, sorted. The engines log a
/// pair once per pass and per MD that matched it, so the log can be many
/// times longer than the matches it records.
std::vector<std::pair<data::TupleId, data::TupleId>> DistinctMatches(
    const std::vector<std::pair<data::TupleId, data::TupleId>>& log) {
  std::vector<std::pair<data::TupleId, data::TupleId>> distinct = log;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  distinct.shrink_to_fit();
  return distinct;
}

void CheckContext(const PipelineContext* ctx) {
  UC_CHECK(ctx != nullptr);
  UC_CHECK(ctx->data != nullptr);
  UC_CHECK(ctx->master != nullptr);
  UC_CHECK(ctx->rules != nullptr);
  // Session::Run always provides the engine's warm environment; the phases
  // never build indexes of their own.
  UC_CHECK(ctx->match_env != nullptr)
      << "builtin phases require PipelineContext::match_env (run them "
         "through a Session, or build a core::MatchEnvironment)";
}

}  // namespace

Result<PhaseStats> CRepairPhase::Run(PipelineContext* ctx) {
  CheckContext(ctx);
  core::CRepairOptions opts;
  opts.eta = ctx->config.eta;
  opts.on_fix = JournalObserver(ctx, kName);
  opts.cancel = ctx->cancel;
  const core::CRepairStats stats =
      core::CRepair(ctx->data, *ctx->match_env, opts);
  UC_RETURN_IF_ERROR(stats.interrupt);

  PhaseStats out;
  out.fixes = stats.deterministic_fixes;
  out.matches = DistinctMatches(stats.md_matches);
  out.counters = {{"confidence_upgrades", stats.confidence_upgrades},
                  {"rule_applications", stats.rule_applications},
                  {"conflicts", stats.conflicts}};
  return out;
}

Result<PhaseStats> ERepairPhase::Run(PipelineContext* ctx) {
  CheckContext(ctx);
  core::ERepairOptions opts;
  opts.delta1 = ctx->config.delta1;
  opts.delta2 = ctx->config.delta2;
  opts.eta = ctx->config.eta;
  opts.on_fix = JournalObserver(ctx, kName);
  opts.cancel = ctx->cancel;
  const core::ERepairStats stats =
      core::ERepair(ctx->data, *ctx->match_env, opts);
  UC_RETURN_IF_ERROR(stats.interrupt);

  PhaseStats out;
  out.fixes = stats.reliable_fixes;
  out.matches = DistinctMatches(stats.md_matches);
  out.counters = {
      {"groups_resolved", stats.groups_resolved},
      {"groups_skipped_high_entropy", stats.groups_skipped_high_entropy},
      {"passes", stats.passes}};
  return out;
}

Result<PhaseStats> HRepairPhase::Run(PipelineContext* ctx) {
  CheckContext(ctx);
  core::HRepairOptions opts;
  opts.on_fix = JournalObserver(ctx, kName);
  opts.cancel = ctx->cancel;
  const core::HRepairStats stats =
      core::HRepair(ctx->data, *ctx->match_env, opts);
  UC_RETURN_IF_ERROR(stats.interrupt);

  PhaseStats out;
  out.fixes = stats.possible_fixes;
  out.matches = DistinctMatches(stats.md_matches);
  out.counters = {{"merges", stats.merges},
                  {"nulls_introduced", stats.nulls_introduced},
                  {"passes", stats.passes},
                  {"anomalies", stats.anomalies}};
  return out;
}

std::vector<PhaseFactory> MakeDefaultPhaseFactories(bool crepair, bool erepair,
                                                    bool hrepair) {
  std::vector<PhaseFactory> factories;
  if (crepair) {
    factories.push_back([] { return std::make_unique<CRepairPhase>(); });
  }
  if (erepair) {
    factories.push_back([] { return std::make_unique<ERepairPhase>(); });
  }
  if (hrepair) {
    factories.push_back([] { return std::make_unique<HRepairPhase>(); });
  }
  return factories;
}

}  // namespace uniclean
