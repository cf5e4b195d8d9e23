// Section 5 software-level injection tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "arch/functional_sim.h"
#include "campaign_fixture.h"
#include "soft/soft_inject.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

Program SmallProgram() {
  return BuildWorkload(WorkloadByName("gzip"), 3, true);
}

TEST(Soft, NamesAreTotal) {
  for (int m = 0; m < kNumSoftFaultModels; ++m)
    EXPECT_STRNE(SoftFaultModelName(static_cast<SoftFaultModel>(m)), "?");
  for (int o = 0; o < kNumSoftOutcomes; ++o)
    EXPECT_STRNE(SoftOutcomeName(static_cast<SoftOutcome>(o)), "?");
}

TEST(Soft, TrialsAreDeterministic) {
  const Program prog = SmallProgram();
  const auto a = RunSoftTrial(prog, SoftFaultModel::kRegBit64, 100, 7, 1u << 24);
  const auto b = RunSoftTrial(prog, SoftFaultModel::kRegBit64, 100, 7, 1u << 24);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.control_flow_diverged, b.control_flow_diverged);
  EXPECT_EQ(a.insns_executed, b.insns_executed);
}

TEST(Soft, BranchFlipDivergesControlFlow) {
  const Program prog = SmallProgram();
  int diverged = 0, total = 0;
  for (std::uint64_t t = 0; t < 30; ++t) {
    const auto r =
        RunSoftTrial(prog, SoftFaultModel::kBranchFlip, t * 37, t, 1u << 24);
    ++total;
    // A forced wrong branch must at least transiently leave the golden path
    // unless the run dies first.
    if (r.control_flow_diverged || r.outcome == SoftOutcome::kException)
      ++diverged;
  }
  EXPECT_EQ(diverged, total);
}

TEST(Soft, EveryModelProducesOnlyValidOutcomes) {
  const Program prog = SmallProgram();
  for (int m = 0; m < kNumSoftFaultModels; ++m) {
    for (std::uint64_t t = 0; t < 10; ++t) {
      const auto r = RunSoftTrial(prog, static_cast<SoftFaultModel>(m),
                                  t * 101, t, 1u << 24);
      EXPECT_LE(static_cast<int>(r.outcome), 3);
    }
  }
}

TEST(Soft, SomeFaultsAreMaskedAndSomeAreNot) {
  const Program prog = SmallProgram();
  int ok = 0, bad = 0;
  for (std::uint64_t t = 0; t < 60; ++t) {
    const auto r =
        RunSoftTrial(prog, SoftFaultModel::kRegBit64, t * 997, t, 1u << 24);
    if (r.outcome == SoftOutcome::kStateOk) ++ok;
    if (r.outcome == SoftOutcome::kOutputBad) ++bad;
  }
  EXPECT_GT(ok, 5) << "software masking should be significant (paper: ~50%)";
  EXPECT_GT(bad, 5) << "register corruption must be able to break output";
}

TEST(Soft, CampaignAggregatesAndCaches) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tfi_soft_cache").string();
  ::setenv("TFI_CACHE_DIR", dir.c_str(), 1);
  std::filesystem::remove_all(dir);
  SoftCampaignSpec spec;
  spec.workload = "gzip";
  spec.iters = 3;
  spec.trials = 20;
  spec.model = SoftFaultModel::kNop;
  const auto fresh = RunSoftCampaign(spec, false);
  EXPECT_EQ(fresh.trials, 20u);
  std::uint64_t sum = 0;
  for (auto v : fresh.by_outcome) sum += v;
  EXPECT_EQ(sum, 20u);
  const auto cached = RunSoftCampaign(spec, false);
  EXPECT_EQ(cached.by_outcome, fresh.by_outcome);
  std::filesystem::remove_all(dir);
  ::unsetenv("TFI_CACHE_DIR");
}

TEST(Soft, ReferenceMemoIsKeyedOnTheExactProgram) {
  // gzip at 4 and at 12 iterations differ in one program byte. A campaign
  // at 12 run after one at 4 on the same thread must classify against the
  // 12-iteration reference, exactly as on a fresh thread.
  SoftCampaignSpec spec;
  spec.workload = "gzip";
  spec.model = SoftFaultModel::kRegBit64;
  spec.trials = 40;
  spec.iters = 12;
  SoftCampaignSpec shorter = spec;
  shorter.iters = 4;
  SoftCampaignResult fresh, after_shorter;
  {
    ScopedCacheDir cache("tfi_soft_memo_fresh");
    std::thread([&] { fresh = RunSoftCampaign(spec, false); }).join();
  }
  {
    ScopedCacheDir cache("tfi_soft_memo_reused");
    RunSoftCampaign(shorter, false);
    after_shorter = RunSoftCampaign(spec, false);
  }
  EXPECT_EQ(after_shorter.by_outcome, fresh.by_outcome);
  EXPECT_EQ(after_shorter.state_ok_with_divergence,
            fresh.state_ok_with_divergence);
}

TEST(Soft, CheckpointStartMatchesParent) {
  // Trials start from the reference checkpoint nearest before their target.
  // These results were recorded from the build that replayed every trial
  // from instruction 0. Per model: targets 0 and eligible - 1, then the
  // model's eligible counts at the first two checkpoints (instructions 65536
  // and 131072) minus one, exact and plus one, and at the checkpoint at
  // instruction 524288 (past four syscalls) exact and plus one.
  using M = SoftFaultModel;
  using O = SoftOutcome;
  constexpr std::uint64_t kRefInsns = 966014;  // gzip at iters 8
  constexpr std::uint64_t kRunaway = 4 * kRefInsns;
  struct Case {
    M model;
    std::uint64_t target, max_insns;
    O outcome;
    bool diverged;
    std::uint64_t insns;
  };
  const Case cases[] = {
      {M::kRegBit32, 0, kRunaway, O::kException, true, 3864056},
      {M::kRegBit32, 669506, kRunaway, O::kException, false, 3864056},
      {M::kRegBit32, 47223, kRunaway, O::kStateOk, false, 149434},
      {M::kRegBit32, 47224, kRunaway, O::kStateOk, false, 149434},
      {M::kRegBit32, 47225, kRunaway, O::kStateOk, false, 149434},
      {M::kRegBit32, 92511, kRunaway, O::kStateOk, false, 149434},
      {M::kRegBit32, 92512, kRunaway, O::kStateOk, true, 149434},
      {M::kRegBit32, 92513, kRunaway, O::kOutputBad, true, 968054},
      {M::kRegBit32, 364251, kRunaway, O::kOutputBad, true, 966602},
      {M::kRegBit32, 364252, kRunaway, O::kStateOk, false, 616042},
      {M::kRegBit64, 0, kRunaway, O::kException, true, 3864056},
      {M::kRegBit64, 669506, kRunaway, O::kException, false, 3864056},
      {M::kRegBit64, 47223, kRunaway, O::kStateOk, false, 149434},
      {M::kRegBit64, 47224, kRunaway, O::kStateOk, false, 149434},
      {M::kRegBit64, 47225, kRunaway, O::kStateOk, false, 149434},
      {M::kRegBit64, 92511, kRunaway, O::kStateOk, false, 149434},
      {M::kRegBit64, 92512, kRunaway, O::kStateOk, true, 149434},
      {M::kRegBit64, 92513, kRunaway, O::kOutputBad, true, 968054},
      {M::kRegBit64, 364251, kRunaway, O::kOutputBad, true, 966602},
      {M::kRegBit64, 364252, kRunaway, O::kStateOk, false, 616042},
      {M::kRegRandom, 0, kRunaway, O::kOutputBad, true, 149450},
      {M::kRegRandom, 669506, kRunaway, O::kException, false, 3864056},
      {M::kRegRandom, 47223, kRunaway, O::kStateOk, false, 149434},
      {M::kRegRandom, 47224, kRunaway, O::kStateOk, false, 149434},
      {M::kRegRandom, 47225, kRunaway, O::kStateOk, false, 149434},
      {M::kRegRandom, 92511, kRunaway, O::kStateOk, false, 149434},
      {M::kRegRandom, 92512, kRunaway, O::kStateOk, true, 149434},
      {M::kRegRandom, 92513, kRunaway, O::kOutputBad, true, 968054},
      {M::kRegRandom, 364251, kRunaway, O::kOutputBad, true, 966602},
      {M::kRegRandom, 364252, kRunaway, O::kStateOk, false, 616042},
      {M::kInsnBit, 0, kRunaway, O::kStateOk, false, 149434},
      {M::kInsnBit, 966013, kRunaway, O::kOutputOk, false, 966014},
      {M::kInsnBit, 65535, kRunaway, O::kStateOk, false, 149434},
      {M::kInsnBit, 65536, kRunaway, O::kStateOk, false, 149434},
      {M::kInsnBit, 65537, kRunaway, O::kStateOk, false, 149434},
      {M::kInsnBit, 131071, kRunaway, O::kStateOk, false, 149434},
      {M::kInsnBit, 131072, kRunaway, O::kStateOk, false, 149434},
      {M::kInsnBit, 131073, kRunaway, O::kStateOk, false, 149434},
      {M::kInsnBit, 524288, kRunaway, O::kStateOk, true, 616030},
      {M::kInsnBit, 524289, kRunaway, O::kStateOk, true, 615982},
      {M::kNop, 0, kRunaway, O::kStateOk, false, 149434},
      {M::kNop, 966013, kRunaway, O::kException, false, 3864056},
      {M::kNop, 65535, kRunaway, O::kStateOk, false, 149434},
      {M::kNop, 65536, kRunaway, O::kOutputBad, true, 965924},
      {M::kNop, 65537, kRunaway, O::kStateOk, false, 149434},
      {M::kNop, 131071, kRunaway, O::kStateOk, false, 149434},
      {M::kNop, 131072, kRunaway, O::kStateOk, false, 149434},
      {M::kNop, 131073, kRunaway, O::kStateOk, false, 149434},
      {M::kNop, 524288, kRunaway, O::kStateOk, true, 616048},
      {M::kNop, 524289, kRunaway, O::kStateOk, true, 615982},
      {M::kBranchFlip, 0, kRunaway, O::kOutputBad, true, 213254},
      {M::kBranchFlip, 276439, kRunaway, O::kOutputBad, true, 1082666},
      {M::kBranchFlip, 13652, kRunaway, O::kOutputBad, true, 882132},
      {M::kBranchFlip, 13653, kRunaway, O::kOutputBad, true, 965924},
      {M::kBranchFlip, 13654, kRunaway, O::kStateOk, true, 149344},
      {M::kBranchFlip, 32785, kRunaway, O::kStateOk, true, 149428},
      {M::kBranchFlip, 32786, kRunaway, O::kStateOk, true, 149434},
      {M::kBranchFlip, 32787, kRunaway, O::kStateOk, true, 149440},
      {M::kBranchFlip, 147530, kRunaway, O::kStateOk, true, 615982},
      {M::kBranchFlip, 147531, kRunaway, O::kOutputBad, true, 965960},
      // max_insns at and past the first checkpoint, then either side of the
      // second: a trial never starts at or beyond its runaway bound.
      {M::kRegBit64, 92517, 65536, O::kException, false, 65536},
      {M::kRegBit64, 92517, 65537, O::kException, false, 65537},
      {M::kRegBit64, 92517, 131071, O::kException, false, 131071},
      {M::kRegBit64, 92517, 131073, O::kException, false, 131073},
  };
  const Program prog = BuildWorkload(WorkloadByName("gzip"), 8, true);
  ASSERT_EQ(FunctionalSim(prog).Run(1ULL << 40), kRefInsns);
  for (const Case& c : cases) {
    const auto r = RunSoftTrial(prog, c.model, c.target, 0x5EED + c.target,
                                c.max_insns);
    SCOPED_TRACE(std::string(SoftFaultModelName(c.model)) + " target " +
                 std::to_string(c.target) + " max " +
                 std::to_string(c.max_insns));
    EXPECT_EQ(r.outcome, c.outcome);
    EXPECT_EQ(r.control_flow_diverged, c.diverged);
    EXPECT_EQ(r.insns_executed, c.insns);
  }
}

TEST(Soft, CacheKeyHashesMaxInsnFactor) {
  // The runaway bound decides which trials are Exceptions, so a campaign
  // at factor 1 run after one at factor 4 must not be served its entry.
  SoftCampaignSpec spec;
  spec.workload = "gzip";
  spec.iters = 3;
  spec.model = SoftFaultModel::kNop;
  spec.trials = 40;
  SoftCampaignSpec tight = spec;
  tight.max_insn_factor = 1;
  SoftCampaignResult fresh, after_loose, loose;
  {
    ScopedCacheDir cache("tfi_soft_factor_fresh");
    fresh = RunSoftCampaign(tight, false);
  }
  {
    ScopedCacheDir cache("tfi_soft_factor_shared");
    loose = RunSoftCampaign(spec, false);
    after_loose = RunSoftCampaign(tight, false);
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator(cache.dir()))
      ++entries;
    EXPECT_EQ(entries, 2u);
  }
  EXPECT_EQ(after_loose.by_outcome, fresh.by_outcome);
  EXPECT_EQ(after_loose.state_ok_with_divergence,
            fresh.state_ok_with_divergence);
  EXPECT_NE(loose.by_outcome, fresh.by_outcome)
      << "the two factors must classify some trial differently";
}

}  // namespace
}  // namespace tfsim
