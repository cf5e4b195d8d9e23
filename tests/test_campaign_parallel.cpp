// The parallel campaign engine around the trial loop: trial specs depend
// only on the campaign spec, a cache hit replays the campaign counters, and
// merged results refuse incompatible parts. That `jobs` is an execution knob,
// never a results knob, is the PathEquivalence matrix's job (test_paths.cpp
// compares every cell at jobs 1 and 4 with one reference).
#include <gtest/gtest.h>

#include <string>

#include "campaign_fixture.h"
#include "inject/campaign.h"
#include "obs/metrics.h"
#include "uarch/core.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

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
