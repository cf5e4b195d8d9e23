// Machine-readable exports of campaign results (CSV), for plotting the
// paper's figures with external tools.
#pragma once

#include <ostream>

#include "inject/campaign.h"
#include "obs/heatmap.h"

namespace tfsim {

// Figure 6 scatter: one row per trial with (valid_instrs, benign 0/1).
void WriteUtilizationCsv(const CampaignResult& result, std::ostream& os);

// Fault-propagation traces as JSONL: a schema_version/generated_at header
// line, then one JSON object per traced trial with the injection site,
// outcome, cycles-to-first-architectural-divergence, cycles-to-
// classification and the categories touched. Requires the campaign to have
// run with CampaignObs::collect_prop_traces; writes nothing (and returns
// false) when no traces were recorded. Readers must keep accepting
// header-less files from schema v1 exports.
bool WritePropTraceJsonl(const CampaignResult& result, std::ostream& os);

// Per-field vulnerability heatmap for one campaign result: re-derives each
// trial's injection site from the spec's seeded trial stream (the same
// MakeTrialSpecs mapping the campaign used, so this works on cached
// results that never carried field names), and joins propagation-
// latency data when the run collected traces. `result` must be a single
// campaign, not a MergeResults aggregate (the trial→spec mapping is
// per-spec); throws std::out_of_range for an unknown workload (including
// an aggregate's synthetic "aggregate" name).
obs::VulnerabilityHeatmap BuildHeatmap(const CampaignResult& result);

}  // namespace tfsim
