// Tests of the fault-injection machinery: golden recording invariants,
// trial classification on targeted injections, cache round trips.
#include <gtest/gtest.h>

#include <cstdlib>

#include "campaign_fixture.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "inject/golden.h"
#include "inject/trial.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

GoldenSpec SmallSpec() {
  GoldenSpec gs;
  gs.warmup = 12000;
  gs.points = 3;
  gs.spacing = 500;
  gs.window = 4000;
  gs.slack = 1000;
  return gs;
}

struct SharedGolden {
  Program prog;
  std::shared_ptr<const GoldenRun> golden;
};

const SharedGolden& Shared() {
  static const SharedGolden s = [] {
    SharedGolden sg;
    sg.prog = BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
    sg.golden = RecordGolden(CoreConfig{}, sg.prog, SmallSpec());
    return sg;
  }();
  return s;
}

TEST(Golden, TimelineShapesAreConsistent) {
  const auto& g = *Shared().golden;
  const std::uint64_t expect =
      2 * 500 + 4000 + 200 + 1000;  // (points-1)*spacing+window+offset+slack
  EXPECT_EQ(g.timeline.state_hash.size(), expect);
  EXPECT_EQ(g.timeline.arch_hash.size(), expect);
  EXPECT_EQ(g.timeline.retired_total.size(), expect);
  EXPECT_EQ(g.checkpoints.size(), 3u);
  EXPECT_GT(g.timeline.events.size(), 1000u);
  EXPECT_GT(g.stats.Ipc(), 0.5);
}

TEST(Golden, RetiredTotalsAreMonotonic) {
  const auto& tl = Shared().golden->timeline;
  for (std::size_t i = 1; i < tl.retired_total.size(); ++i)
    EXPECT_LE(tl.retired_total[i - 1], tl.retired_total[i]);
}

TEST(Golden, CheckpointReplayMatchesTimeline) {
  const auto& g = *Shared().golden;
  Core core(g.cfg, g.program);
  core.Load(g.checkpoints[1]);
  core.tlb() = g.tlb;
  // Replaying from checkpoint 1 must reproduce the recorded hashes exactly.
  for (int c = 0; c < 200; ++c) {
    core.Cycle();
    ASSERT_EQ(core.StateHash(),
              g.timeline.state_hash[1 * 500 + static_cast<std::size_t>(c)])
        << "cycle " << c;
  }
}

TEST(Golden, FailsOnExitingProgram) {
  const Program tiny = BuildWorkload(WorkloadByName("gzip"), 1);
  GoldenSpec gs = SmallSpec();
  gs.warmup = 0;
  gs.window = 300000;  // long enough that the program exits inside
  EXPECT_THROW(RecordGolden(CoreConfig{}, tiny, gs), std::runtime_error);
}

TEST(Trial, NoInjectionEffectMatchesImmediately) {
  // Flip a bit and flip it back via a second trial run: simplest is to pick
  // a bit, run, and verify the double-flip identity through the registry
  // (covered elsewhere); here: inject into a *background-adjacent* dead bit
  // — the upper bit of a free physical register — and expect masking.
  TrialRunner runner(Shared().golden);
  Rng rng(5);
  int masked = 0, trials = 0;
  const std::uint64_t bits = runner.core().registry().InjectableBits(true);
  for (std::uint64_t i = 0; i < bits && trials < 40; ++i) {
    const BitLocation loc = runner.core().registry().LocateBit(i, true);
    if (loc.name != "regfile.value" || loc.bit < 60) continue;
    TrialSpec ts{1, 10, i, true};
    const TrialRecord r = runner.Run(ts).record;
    ++trials;
    if (r.outcome == Outcome::kMicroArchMatch) ++masked;
  }
  ASSERT_GT(trials, 10);
  // High regfile bits are mostly dead (addresses/counters are small).
  EXPECT_GT(masked, trials / 2);
}

TEST(Trial, ArchRatCorruptionIsRegfileSdc) {
  TrialRunner runner(Shared().golden);
  int sdc = 0, total = 0;
  const std::uint64_t bits = runner.core().registry().InjectableBits(true);
  for (std::uint64_t i = 0; i < bits; ++i) {
    const BitLocation loc = runner.core().registry().LocateBit(i, true);
    if (loc.name != "rename.archrat") continue;
    // Low pointer bits of actively used architectural registers.
    if (loc.bit >= 3) continue;
    const TrialRecord r = runner.Run({0, 5, i, true}).record;
    ++total;
    if (r.outcome == Outcome::kSdc && r.mode == FailureMode::kRegfile) ++sdc;
  }
  ASSERT_GT(total, 50);
  EXPECT_GT(sdc, total / 3) << "archrat corruption should frequently corrupt "
                               "the architectural register file";
}

TEST(Trial, FetchPcCorruptionDivergesOrRecovers) {
  TrialRunner runner(Shared().golden);
  const std::uint64_t bits = runner.core().registry().InjectableBits(true);
  int classified = 0;
  for (std::uint64_t i = 0; i < bits; ++i) {
    const BitLocation loc = runner.core().registry().LocateBit(i, true);
    if (loc.name != "fetch.pc") continue;
    const TrialRecord r = runner.Run({0, 3, i, true}).record;
    ++classified;
    // Every outcome is acceptable, but the trial must terminate decisively
    // (this exercise is about totality of classification).
    (void)r;
  }
  EXPECT_EQ(classified, 62);
}

TEST(Trial, RecordsUtilizationAtInjection) {
  TrialRunner runner(Shared().golden);
  const TrialRecord r = runner.Run({0, 50, 12345, true}).record;
  EXPECT_GT(r.inflight, 0u);
  EXPECT_LE(r.valid_instrs, 132u);
}

TEST(Campaign, CacheRoundTrips) {
  ScopedCacheDir cache("tfi_test_cache");
  const CampaignSpec spec = SmallCampaign(25);
  CampaignOptions quiet;
  quiet.verbose = false;
  const CampaignResult fresh = RunCampaign(spec, quiet);
  const CampaignResult cached = RunCampaign(spec, quiet);
  EXPECT_EQ(fresh.trials, cached.trials);
  EXPECT_EQ(fresh.ByOutcome(), cached.ByOutcome());
}

TEST(Campaign, DeterministicForFixedSeed) {
  ::setenv("TFI_CACHE_DIR", "/nonexistent-cache-dir-ignore", 1);
  CampaignSpec spec;
  spec.workload = "gzip";
  spec.trials = 15;
  spec.golden = SmallSpec();
  CampaignOptions quiet;
  quiet.verbose = false;
  const auto a = RunCampaign(spec, quiet).ByOutcome();
  const auto b = RunCampaign(spec, quiet).ByOutcome();
  EXPECT_EQ(a, b);
  ::unsetenv("TFI_CACHE_DIR");
}

TEST(Campaign, MergeAggregates) {
  CampaignResult a, b;
  a.trials.resize(3);
  a.trials[0].outcome = Outcome::kSdc;
  b.trials.resize(2);
  const CampaignResult m = MergeResults({a, b});
  EXPECT_EQ(m.trials.size(), 5u);
  EXPECT_EQ(m.ByOutcome()[static_cast<int>(Outcome::kSdc)], 1u);
}

TEST(Outcome, NamesAreTotal) {
  for (int i = 0; i < kNumOutcomes; ++i)
    EXPECT_STRNE(OutcomeName(static_cast<Outcome>(i)), "?");
  for (int i = 0; i < kNumFailureModes; ++i)
    EXPECT_STRNE(FailureModeName(static_cast<FailureMode>(i)), "?");
}

TEST(Outcome, SdcTypedModes) {
  EXPECT_TRUE(IsSdcMode(FailureMode::kRegfile));
  EXPECT_TRUE(IsSdcMode(FailureMode::kMem));
  EXPECT_TRUE(IsSdcMode(FailureMode::kCtrl));
  EXPECT_TRUE(IsSdcMode(FailureMode::kItlb));
  EXPECT_TRUE(IsSdcMode(FailureMode::kDtlb));
  EXPECT_FALSE(IsSdcMode(FailureMode::kExcept));
  EXPECT_FALSE(IsSdcMode(FailureMode::kLocked));
  EXPECT_FALSE(IsSdcMode(FailureMode::kNoFailure));
}

}  // namespace
}  // namespace tfsim
