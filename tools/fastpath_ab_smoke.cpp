// A/B proof that the trial fast path is pure execution policy: the same
// campaign run with --fast-path and --no-fast-path, at 1 and 4 worker
// threads, must produce byte-identical trial records, propagation traces,
// outcome/failure-mode distributions, and heatmap exports. Exits nonzero
// with a diagnostic on the first divergence.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "inject/campaign.h"
#include "inject/report.h"
#include "obs/heatmap.h"
#include "obs/prop_trace.h"

using namespace tfsim;

namespace {

int g_failures = 0;

#define CHECK_EQ(a, b, what)                                              \
  do {                                                                    \
    if (!((a) == (b))) {                                                  \
      std::fprintf(stderr, "FAIL %s: %s\n", label.c_str(), what);         \
      ++g_failures;                                                       \
    }                                                                     \
  } while (0)

std::string TraceRows(const CampaignResult& r) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.prop_traces.size(); ++i)
    obs::WritePropTraceRow(r.prop_traces[i], r.spec.workload, i, os);
  return os.str();
}

std::string HeatmapJson(const CampaignResult& r) {
  std::ostringstream os;
  // A fixed generated_at stamp: two exports must not differ just because
  // they were written on either side of a second boundary.
  BuildHeatmap(r).WriteJson(os, r.spec.workload, "2026-01-01T00:00:00Z");
  return os.str();
}

void Compare(const CampaignResult& fast, const CampaignResult& slow,
             const std::string& label) {
  CHECK_EQ(fast.trials.size(), slow.trials.size(), "trial count");
  for (std::size_t i = 0;
       i < fast.trials.size() && i < slow.trials.size(); ++i) {
    const TrialRecord& f = fast.trials[i];
    const TrialRecord& s = slow.trials[i];
    if (f.outcome != s.outcome || f.mode != s.mode || f.cat != s.cat ||
        f.storage != s.storage || f.cycles != s.cycles ||
        f.valid_instrs != s.valid_instrs || f.inflight != s.inflight) {
      std::fprintf(stderr,
                   "FAIL %s: trial %zu records differ "
                   "(fast %s/%s @%u vi=%u if=%u, slow %s/%s @%u vi=%u "
                   "if=%u)\n",
                   label.c_str(), i, OutcomeName(f.outcome),
                   FailureModeName(f.mode), f.cycles, f.valid_instrs,
                   f.inflight, OutcomeName(s.outcome),
                   FailureModeName(s.mode), s.cycles, s.valid_instrs,
                   s.inflight);
      ++g_failures;
    }
  }
  CHECK_EQ(fast.ByOutcome(), slow.ByOutcome(), "outcome distribution");
  CHECK_EQ(fast.ByFailureMode(), slow.ByFailureMode(),
           "failure-mode distribution");
  CHECK_EQ(TraceRows(fast), TraceRows(slow), "propagation-trace rows");
  CHECK_EQ(HeatmapJson(fast), HeatmapJson(slow), "heatmap JSON");
}

CampaignResult RunOne(CampaignSpec spec, bool fast_path, int jobs) {
  CampaignOptions opt;
  opt.jobs = jobs;
  opt.verbose = false;
  opt.use_cache = false;
  opt.fast_path = fast_path;
  opt.obs.collect_prop_traces = true;
  return RunCampaign(spec, opt);
}

}  // namespace

int main() {
  CampaignSpec spec;
  spec.workload = "gzip";
  spec.trials = 96;
  spec.golden.warmup = 12000;
  spec.golden.points = 3;
  spec.golden.spacing = 500;
  spec.golden.window = 4000;
  spec.golden.slack = 1000;

  // Single-bit model, jobs 1 and 4: fast vs slow, plus fast@4 vs slow@1
  // (scheduling independence on top of path independence).
  const CampaignResult slow1 = RunOne(spec, /*fast_path=*/false, /*jobs=*/1);
  const CampaignResult fast1 = RunOne(spec, /*fast_path=*/true, /*jobs=*/1);
  const CampaignResult fast4 = RunOne(spec, /*fast_path=*/true, /*jobs=*/4);
  Compare(fast1, slow1, "single-bit jobs=1");
  Compare(fast4, slow1, "single-bit jobs=4 vs slow jobs=1");

  // Multi-bit adjacent bursts exercise the no-early-cutoff rules (cancelled
  // flips, several watched words per trial).
  CampaignSpec burst = spec;
  burst.trials = 48;
  burst.flips = 3;
  burst.adjacent = true;
  {
    const CampaignResult s = RunOne(burst, /*fast_path=*/false, 1);
    const CampaignResult f = RunOne(burst, /*fast_path=*/true, 4);
    const std::string label = "adjacent-burst";
    Compare(f, s, label);
    CHECK_EQ(s.trials.size(), static_cast<std::size_t>(burst.trials),
             "burst trial count");
  }

  // A reshaped core changes the registry's whole word space (field widths,
  // word count), so the fast-path plan and snapshots are built over a
  // different layout — byte-identity must hold there too.
  CampaignSpec shaped = spec;
  shaped.trials = 48;
  shaped.core.rob_entries = 16;
  shaped.core.lq_entries = 8;
  shaped.core.sq_entries = 8;
  shaped.core.phys_regs = 48;
  {
    const CampaignResult s = RunOne(shaped, /*fast_path=*/false, 1);
    const CampaignResult f = RunOne(shaped, /*fast_path=*/true, 4);
    const std::string label = "non-default-geometry";
    Compare(f, s, label);
  }

  if (g_failures) {
    std::fprintf(stderr, "fastpath_ab_smoke: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("fastpath_ab_smoke: fast and slow paths byte-identical "
              "(%d + %d + %d trials, jobs 1 and 4, default and reshaped "
              "cores)\n",
              spec.trials, 48, shaped.trials);
  return 0;
}
