// Integration tests for the detailed pipeline: co-simulation against the
// functional reference, determinism, snapshot/restore, recovery paths.
#include <gtest/gtest.h>

#include <sstream>

#include "arch/functional_sim.h"
#include "check/lockstep.h"
#include "isa/assemble.h"
#include "uarch/core.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

// Runs the pipeline and functional simulator in lockstep for `cycles`
// cycles or until the program exits.
void CoSim(const Program& prog, std::uint64_t cycles,
           CoreConfig cfg = CoreConfig{}) {
  check::Lockstep ls(cfg, prog, check::kDeadlockCycles);
  EXPECT_TRUE(ls.Run(cycles)) << ls.Failure();
}

class WorkloadCoSim : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadCoSim, RetireStreamMatchesFunctionalReference) {
  const Program prog =
      BuildWorkload(WorkloadByName(GetParam()), kCampaignIters);
  CoSim(prog, 30000);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadCoSim,
                         ::testing::Values("bzip2", "crafty", "gap", "gcc",
                                           "gzip", "mcf", "parser", "twolf",
                                           "vortex", "vpr"),
                         [](const auto& p) { return std::string(p.param); });

class WorkloadCoSimProtected : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadCoSimProtected, ProtectionsAreFunctionallyTransparent) {
  // With all four mechanisms on and no faults, execution must be identical.
  CoreConfig cfg;
  cfg.protect = ProtectionConfig::All();
  const Program prog =
      BuildWorkload(WorkloadByName(GetParam()), kCampaignIters);
  CoSim(prog, 15000, cfg);
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadCoSimProtected,
                         ::testing::Values("gzip", "gcc", "mcf", "vpr"),
                         [](const auto& p) { return std::string(p.param); });

TEST(Core, RunsProgramsToCompletion) {
  const Program prog = BuildWorkload(WorkloadByName("gzip"), 2);
  Core core(CoreConfig{}, prog);
  FunctionalSim ref(prog);
  ref.Run(1u << 30);
  for (int c = 0; c < 500000 && !core.exited(); ++c) core.Cycle();
  ASSERT_TRUE(core.exited());
  EXPECT_EQ(core.output(), ref.state().output);
  EXPECT_FALSE(core.output().empty());
}

TEST(Core, SyscallsSerializeCorrectly) {
  // Per-iteration write syscalls force repeated full flushes mid-execution.
  const Program prog = BuildWorkload(WorkloadByName("gcc"), 3, true);
  check::Lockstep ls(CoreConfig{}, prog, check::kDeadlockCycles);
  ASSERT_TRUE(ls.Run(300000)) << ls.Failure();
  EXPECT_TRUE(ls.exited());
  EXPECT_GT(ls.core().stats().full_flushes, 3u);  // one per syscall at least
  EXPECT_GT(ls.retired(), 1000u);
}

TEST(Core, Deterministic) {
  const Program prog = BuildWorkload(WorkloadByName("twolf"), kCampaignIters);
  Core a(CoreConfig{}, prog), b(CoreConfig{}, prog);
  for (int c = 0; c < 5000; ++c) {
    a.Cycle();
    b.Cycle();
  }
  EXPECT_EQ(a.StateHash(), b.StateHash());
  EXPECT_EQ(a.RetiredTotal(), b.RetiredTotal());
}

TEST(Core, SnapshotRestoreReplaysIdentically) {
  const Program prog = BuildWorkload(WorkloadByName("vortex"), kCampaignIters);
  Core core(CoreConfig{}, prog);
  for (int c = 0; c < 8000; ++c) core.Cycle();
  const Core::Snapshot snap = core.Save();

  std::vector<std::uint64_t> hashes;
  for (int c = 0; c < 1000; ++c) {
    core.Cycle();
    hashes.push_back(core.StateHash());
  }
  core.Load(snap);
  EXPECT_EQ(core.RetiredTotal(), snap.retired_total);
  for (int c = 0; c < 1000; ++c) {
    core.Cycle();
    ASSERT_EQ(core.StateHash(), hashes[static_cast<std::size_t>(c)])
        << "divergence after restore at cycle " << c;
  }
}

TEST(Core, ExceptionHaltsTheMachine) {
  const Program prog = Assemble(R"(
      li r1, 1
      divq r1, zero, r2
      hang: br hang
  )");
  Core core(CoreConfig{}, prog);
  for (int c = 0; c < 200 && core.halted_exception() == Exception::kNone; ++c)
    core.Cycle();
  EXPECT_EQ(core.halted_exception(), Exception::kDivZero);
  const std::uint64_t retired = core.RetiredTotal();
  core.Cycle();  // machine is frozen afterwards
  EXPECT_EQ(core.RetiredTotal(), retired);
}

TEST(Core, MispredictRecoveryPreservesCorrectness) {
  // A data-dependent branch pattern the predictor cannot learn.
  const Program prog = Assemble(R"(
      _start:
      li r1, 400          ; iterations
      li r2, 12345        ; lcg state
      li r3, 0            ; checksum
      li r5, 1103515245
      loop:
      mulq r2, r5, r2
      addqi r2, 12345, r2
      srlqi r2, 13, r4
      andqi r4, 1, r4
      beq r4, even
      addqi r3, 3, r3
      br next
      even:
      xorqi r3, 7, r3
      next:
      subqi r1, 1, r1
      bgt r1, loop
      hang: br hang
  )");
  check::Lockstep ls(CoreConfig{}, prog, check::kDeadlockCycles);
  ASSERT_TRUE(ls.Run(20000)) << ls.Failure();
  EXPECT_GT(ls.core().stats().mispredicts, 50u);  // predictor stressed
}

TEST(Core, MemoryOrderViolationsAreDetectedAndRecovered) {
  // A store whose address depends on a long-latency chain, followed
  // immediately by a load to the same address: the load issues early
  // (speculation past the unknown store address), then must be squashed.
  const Program prog = Assemble(R"(
      _start:
      li r1, 300
      la r2, buf
      li r6, 1
      loop:
      mulq r6, r6, r7     ; slow chain feeding the store address
      mulq r7, r7, r7
      andqi r7, 56, r7
      addq r2, r7, r8
      stq r1, 0(r8)       ; store with late-resolving address
      ldq r9, 0(r8)       ; dependent load, same address
      addq r9, r6, r6
      andqi r6, 1023, r6
      bisqi r6, 1, r6
      subqi r1, 1, r1
      bgt r1, loop
      hang: br hang
      .data
      buf: .space 64
  )");
  check::Lockstep ls(CoreConfig{}, prog, check::kDeadlockCycles);
  ASSERT_TRUE(ls.Run(30000)) << ls.Failure();
  EXPECT_GT(ls.core().RetiredTotal(), 3000u);
}

TEST(Core, InFlightStaysWithinPaperCapacity) {
  const Program prog = BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
  Core core(CoreConfig{}, prog);
  std::uint64_t max_if = 0;
  for (int c = 0; c < 20000; ++c) {
    core.Cycle();
    max_if = std::max(max_if, core.InFlight());
  }
  EXPECT_LE(max_if, 132u);  // "up to 132 instructions in-flight"
  EXPECT_GT(max_if, 60u);   // and the machine really fills up
}

TEST(Core, IpcInPlausibleRange) {
  for (const char* name : {"gzip", "vpr"}) {
    const Program prog = BuildWorkload(WorkloadByName(name), kCampaignIters);
    Core core(CoreConfig{}, prog);
    for (int c = 0; c < 30000; ++c) core.Cycle();
    EXPECT_GT(core.stats().Ipc(), 0.5) << name;
    EXPECT_LT(core.stats().Ipc(), 4.0) << name;
  }
}

TEST(Core, ArchViewHashStableAcrossTimingButNotValues) {
  const Program prog = BuildWorkload(WorkloadByName("gcc"), kCampaignIters);
  Core a(CoreConfig{}, prog), b(CoreConfig{}, prog);
  for (int c = 0; c < 3000; ++c) a.Cycle();
  for (int c = 0; c < 3000; ++c) b.Cycle();
  EXPECT_EQ(a.ArchViewHash(), b.ArchViewHash());
}

TEST(Core, DumpPipelineRendersEveryStage) {
  const Program prog = BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
  Core core(CoreConfig{}, prog);
  for (int c = 0; c < 500; ++c) core.Cycle();
  std::ostringstream os;
  core.DumpPipeline(os);
  const std::string out = os.str();
  for (const char* marker : {"fetch", "decode1", "decode2", "sched", "ports",
                             "exec", "lsq", "rob", "rename", "cycle"})
    EXPECT_NE(out.find(marker), std::string::npos) << marker;
}

TEST(Core, StateHashCoversOutput) {
  const Program prog = BuildWorkload(WorkloadByName("gzip"), 1, true);
  Core core(CoreConfig{}, prog);
  std::uint64_t before = core.StateHash();
  for (int c = 0; c < 300000 && core.output().empty(); ++c) core.Cycle();
  ASSERT_FALSE(core.output().empty());
  EXPECT_NE(core.StateHash(), before);
}

}  // namespace
}  // namespace tfsim
