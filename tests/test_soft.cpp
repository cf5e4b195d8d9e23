// Section 5 software-level injection tests.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <thread>

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

}  // namespace
}  // namespace tfsim
