// Shared infrastructure for the per-figure bench binaries: canonical
// campaign specs (so different figures derived from the same campaign share
// the on-disk cache), TFI_* environment scaling, command-line overrides, and
// table/bar rendering of outcome mixes.
//
// Environment knobs (command-line flags of the same name override them):
//   TFI_TRIALS     trials per benchmark per campaign     (default 500)
//   TFI_SOFT_TRIALS trials per benchmark per fault model (default 100)
//   TFI_POINTS     checkpoints (start points) per golden  (default 12)
//   TFI_JOBS       trial-loop worker threads; 0 = all hardware threads
//   TFI_CACHE_DIR  results cache directory (default ./.tfi_cache)
//   TFI_PROGRESS   =1: per-campaign progress lines (trials/sec, outcome mix)
//   TFI_METRICS_JSON  write a cumulative metrics-registry JSON snapshot to
//                     this path after each suite. Campaigns served from the
//                     results cache replay their campaign.* counters into
//                     the registry (identical totals to a live run); only
//                     runs that actually execute also record golden-run
//                     pipeline occupancy.
//
// Command-line flags (parsed by Init, identical spelling to `tfi`):
//   --trials N  --points N  --jobs N  --progress  --metrics-json FILE
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inject/campaign.h"
#include "soft/soft_inject.h"
#include "util/env.h"
#include "util/table.h"

namespace tfsim::bench {

// Bench-wide options: TFI_* environment defaults, overridden by flags.
struct BenchOptions {
  std::int64_t trials = 500;
  std::int64_t points = 12;
  std::int64_t jobs = 1;
  bool progress = false;
  std::string metrics_json;
};

// Parses the common bench flags over the environment defaults. Call first
// thing in every bench main; unknown flags exit with a usage message.
void Init(int argc, char** argv);

// The options Init resolved (environment defaults if Init was never called).
const BenchOptions& Options();

// Campaign execution options derived from Options(): jobs and progress are
// threaded through; metrics are attached by Suite() only
// (per-campaign callers that want telemetry attach their own sinks).
CampaignOptions RunOpts();

// Canonical campaign spec shared by every figure bench. `protect` toggles
// the Section 4 mechanisms; include_ram selects latches+RAMs vs latches.
CampaignSpec BaseSpec(bool include_ram, const ProtectionConfig& protect);

// Runs (or loads) the whole 10-benchmark suite for a spec.
std::vector<CampaignResult> Suite(const CampaignSpec& spec);

// Renders one outcome mix as "match term sdc gray" percentage cells plus a
// stacked bar (M=match, T=terminated, S=SDC, .=gray area).
std::vector<std::string> OutcomeCells(
    const std::array<std::uint64_t, kNumOutcomes>& counts);

// Prints the standard experiment header.
void PrintHeader(const std::string& figure, const std::string& description);

// Categories in the paper's Table 1 order (the 14 baseline categories), and
// the two protection-state categories.
const std::vector<StateCat>& Table1Cats();

}  // namespace tfsim::bench
