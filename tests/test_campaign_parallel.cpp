// The parallel campaign engine's defining property: `jobs` is an execution
// knob, never a results knob. Trial records, propagation traces and the
// deterministic portion of the metrics export must be byte-identical at
// every worker count (test_paths.cpp crosses worker counts with the other
// execution paths).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "campaign_fixture.h"
#include "inject/campaign.h"
#include "obs/metrics.h"
#include "obs/prop_trace.h"
#include "uarch/core.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

// Runs the campaign live with `jobs` workers, metrics attached and
// propagation tracing on.
CampaignResult RunLive(const CampaignSpec& spec, int jobs,
                       obs::MetricsRegistry* metrics) {
  CampaignOptions opt = QuietLive();
  opt.jobs = jobs;
  opt.obs.sinks.metrics = metrics;
  opt.obs.collect_prop_traces = true;
  return RunCampaign(spec, opt);
}

std::string DeterministicJson(const obs::MetricsRegistry& m) {
  std::ostringstream os;
  m.WriteJson(os, /*include_timers=*/false);
  return os.str();
}

std::string TraceRows(const CampaignResult& r) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.prop_traces.size(); ++i)
    obs::WritePropTraceRow(r.prop_traces[i], r.spec.workload, i, os);
  return os.str();
}

TEST(CampaignParallel, JobsDoNotChangeResultsOrMetrics) {
  const CampaignSpec spec = SmallCampaign(40);
  obs::MetricsRegistry m1, m4;
  const CampaignResult r1 = RunLive(spec, 1, &m1);
  const CampaignResult r4 = RunLive(spec, 4, &m4);

  ASSERT_EQ(r1.trials.size(), 40u);
  EXPECT_EQ(r1.trials, r4.trials);
  EXPECT_EQ(r1.ByOutcome(), r4.ByOutcome());
  EXPECT_EQ(r1.ByFailureMode(), r4.ByFailureMode());
  EXPECT_EQ(r1.spec.CacheKey(), r4.spec.CacheKey());
  ASSERT_EQ(r1.prop_traces.size(), 40u);
  EXPECT_EQ(TraceRows(r1), TraceRows(r4));

  // Counters and histograms (Welford summaries included) must match to the
  // byte; only wall-clock timers are excluded from the deterministic export.
  EXPECT_EQ(DeterministicJson(m1), DeterministicJson(m4));
}

TEST(CampaignParallel, TrialSpecsDependOnlyOnCampaignSpec) {
  const CampaignSpec spec = SmallCampaign(64);
  const Program prog = BuildWorkload(WorkloadByName(spec.workload), kCampaignIters);
  Core core(spec.core, prog);
  const std::uint64_t bits = core.registry().InjectableBits(spec.include_ram);

  const auto a = MakeTrialSpecs(spec, bits);
  const auto b = MakeTrialSpecs(spec, bits);
  ASSERT_EQ(a.size(), 64u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].checkpoint, b[i].checkpoint);
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].bit_index, b[i].bit_index);
  }
  // A different seed reshuffles the injections.
  CampaignSpec other = spec;
  other.seed ^= 0xdecade;
  const auto c = MakeTrialSpecs(other, bits);
  int diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff += a[i].bit_index != c[i].bit_index;
  EXPECT_GT(diff, 32);
}

TEST(CampaignParallel, CacheHitIsCountedAndReplaysCampaignCounters) {
  ScopedCacheDir cache("tfi_test_cache_par");
  const CampaignSpec spec = SmallCampaign(15);
  CampaignOptions warm;
  warm.verbose = false;
  RunCampaign(spec, warm);  // populate the cache

  obs::MetricsRegistry metrics;
  CampaignOptions observed;
  observed.verbose = false;
  observed.obs.sinks.metrics = &metrics;
  const CampaignResult r = RunCampaign(spec, observed);
  EXPECT_EQ(r.trials.size(), 15u);
  EXPECT_EQ(metrics.GetCounter("campaign.cache.hits").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("campaign.cache.misses").value(), 0u);
  // The replayed counters match what a live run would have recorded.
  EXPECT_EQ(metrics.GetCounter("campaign.trials").value(), 15u);
  std::uint64_t by_outcome = 0;
  for (int o = 0; o < kNumOutcomes; ++o)
    by_outcome += metrics
                      .GetCounter(std::string("campaign.outcome.") +
                                  OutcomeName(static_cast<Outcome>(o)))
                      .value();
  EXPECT_EQ(by_outcome, 15u);
}

TEST(CampaignParallel, MergeAggregatesGoldenStatsAndChecksCompatibility) {
  CampaignResult a, b;
  a.trials.resize(3);
  a.golden_ipc = 2.0;
  a.golden_bp_accuracy = 0.9;
  a.golden_dcache_misses = 100;
  b.trials.resize(2);
  b.golden_ipc = 1.0;
  b.golden_bp_accuracy = 0.7;
  b.golden_dcache_misses = 50;
  const CampaignResult m = MergeResults({a, b});
  EXPECT_EQ(m.trials.size(), 5u);
  EXPECT_DOUBLE_EQ(m.golden_ipc, 1.5);
  EXPECT_DOUBLE_EQ(m.golden_bp_accuracy, 0.8);
  EXPECT_EQ(m.golden_dcache_misses, 150u);

  // Parts from differently protected machines refuse to aggregate.
  CampaignResult prot = b;
  prot.spec.core.protect = ProtectionConfig::All();
  EXPECT_THROW(MergeResults({a, prot}), std::invalid_argument);
  // So do parts from different injection populations or inventories.
  CampaignResult latches = b;
  latches.spec.include_ram = false;
  EXPECT_THROW(MergeResults({a, latches}), std::invalid_argument);
  CampaignResult other_inv = b;
  other_inv.inventory[0].latch_bits = 1;
  EXPECT_THROW(MergeResults({a, other_inv}), std::invalid_argument);
}

}  // namespace
}  // namespace tfsim
