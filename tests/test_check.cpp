// The per-cycle invariant checker (src/check/): a fault-free machine must
// report zero violations on every workload; seeded corruptions of specific
// structures must be detected in the same cycle and assigned the right
// category; checked campaigns quarantine structural violations as Trial
// Error and bypass the results cache.
#include <gtest/gtest.h>

#include <string>

#include "campaign_fixture.h"
#include "check/invariants.h"
#include "inject/campaign.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "uarch/core.h"
#include "uarch/lsq.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

using check::InvariantChecker;
using check::InvariantKind;

// Builds a BitLocation for element/bit of a named registry field, so tests
// corrupt exactly the structure they mean to.
BitLocation LocateNamed(const StateRegistry& reg, const std::string& name,
                        std::size_t element, std::uint8_t bit) {
  const auto fields = reg.Fields();
  BitLocation loc;
  for (std::size_t fi = 0; fi < fields.size(); ++fi) {
    if (fields[fi].name != name) continue;
    loc.field_index = fi;
    loc.element = element;
    loc.bit = bit;
    loc.name = name;
    return loc;
  }
  ADD_FAILURE() << "no registry field named " << name;
  return loc;
}

// A core running a workload with the checker enabled, warmed into steady
// state (structures populated, zero violations so far).
struct CheckedRig {
  Program prog;
  Core core;

  explicit CheckedRig(const std::string& workload, int warm_cycles = 3000)
      : prog(BuildWorkload(WorkloadByName(workload), kCampaignIters)),
        core(MakeConfig(), prog) {
    for (int c = 0; c < warm_cycles; ++c) core.Cycle();
    EXPECT_EQ(core.invariant_checker()->total(), 0u)
        << "machine not clean after warmup";
  }

  static CoreConfig MakeConfig() {
    CoreConfig cfg;
    cfg.check_invariants = true;
    return cfg;
  }

  // Advances until pred() holds (the structure the test wants to corrupt has
  // a live entry); returns false if it never does within `max` cycles.
  template <typename Pred>
  bool AdvanceUntil(Pred pred, int max = 4000) {
    for (int c = 0; c < max; ++c) {
      if (pred()) return true;
      core.Cycle();
    }
    return pred();
  }
};

TEST(InvariantChecker, CleanRunEveryWorkloadZeroViolations) {
  CoreConfig cfg;
  cfg.check_invariants = true;
  for (const auto& w : AllWorkloads()) {
    const Program prog = BuildWorkload(w, kCampaignIters);
    Core core(cfg, prog);
    for (int c = 0; c < 4000; ++c) core.Cycle();
    EXPECT_EQ(core.invariant_checker()->total(), 0u) << w.name;
    EXPECT_GT(core.stats().retired, 0u) << w.name;
  }
}

TEST(InvariantChecker, FreeListCountFlipIsQueuePointers) {
  CheckedRig rig("gzip");
  rig.core.registry().FlipBit(
      LocateNamed(rig.core.registry(), "rename.sfl_count", 0, 0));
  InvariantChecker* chk = rig.core.invariant_checker();
  EXPECT_GT(chk->Check(rig.core), 0u);
  EXPECT_TRUE(chk->SawKind(InvariantKind::kQueuePointers));
}

TEST(InvariantChecker, RobCountFlipIsQueuePointers) {
  CheckedRig rig("parser");
  rig.core.registry().FlipBit(
      LocateNamed(rig.core.registry(), "rob.count", 0, 0));
  InvariantChecker* chk = rig.core.invariant_checker();
  EXPECT_GT(chk->Check(rig.core), 0u);
  EXPECT_TRUE(chk->SawKind(InvariantKind::kQueuePointers));
}

TEST(InvariantChecker, LiveRobOldpFlipIsPregConservation) {
  CheckedRig rig("gcc");
  const Rob& rob = rig.core.rob();
  std::uint64_t victim = ~0ULL;
  ASSERT_TRUE(rig.AdvanceUntil([&] {
    for (std::uint64_t age = 0; age < rob.Count(); ++age) {
      const std::uint64_t tag = (rob.Head() + age) % rob.entries();
      if (rob.has_dst.GetBit(tag)) {
        victim = tag;
        return true;
      }
    }
    return false;
  }));
  // Changing a live oldp from p to p^1 leaves p unnamed and p^1 named twice
  // across RAT + free list + ROB — conservation must flag it.
  rig.core.registry().FlipBit(
      LocateNamed(rig.core.registry(), "rob.oldp",
                  static_cast<std::size_t>(victim), 0));
  InvariantChecker* chk = rig.core.invariant_checker();
  EXPECT_GT(chk->Check(rig.core), 0u);
  EXPECT_TRUE(chk->SawKind(InvariantKind::kPregConservation));
}

TEST(InvariantChecker, SchedulerRobtagDoneFlipIsSchedulerRef) {
  CheckedRig rig("vortex");
  const Scheduler& sched = rig.core.scheduler();
  std::uint64_t robtag = ~0ULL;
  ASSERT_TRUE(rig.AdvanceUntil([&] {
    for (std::uint64_t si = 0; si < sched.entries(); ++si) {
      if (sched.valid.GetBit(si)) {
        robtag = sched.robtag.Get(si) % rig.core.rob().entries();
        return true;
      }
    }
    return false;
  }));
  // A valid scheduler entry must reference an incomplete ROB entry; marking
  // its target done breaks that reference.
  rig.core.registry().FlipBit(
      LocateNamed(rig.core.registry(), "rob.done",
                  static_cast<std::size_t>(robtag), 0));
  InvariantChecker* chk = rig.core.invariant_checker();
  EXPECT_GT(chk->Check(rig.core), 0u);
  EXPECT_TRUE(chk->SawKind(InvariantKind::kSchedulerRef));
}

TEST(InvariantChecker, LiveLoadQueueRobtagFlipIsLsqOrder) {
  CheckedRig rig("vortex");  // keeps in-flight loads live across cycles
  const Lsq& lsq = rig.core.lsq();
  std::uint64_t li = ~0ULL;
  ASSERT_TRUE(rig.AdvanceUntil([&] {
    for (std::uint64_t i = 0; i < lsq.lq_entries(); ++i) {
      if (lsq.lq_valid.GetBit(i) && lsq.LqContains(i)) {
        li = i;
        return true;
      }
    }
    return false;
  }));
  rig.core.registry().FlipBit(
      LocateNamed(rig.core.registry(), "lq.robtag",
                  static_cast<std::size_t>(li), 0));
  InvariantChecker* chk = rig.core.invariant_checker();
  EXPECT_GT(chk->Check(rig.core), 0u);
  EXPECT_TRUE(chk->SawKind(InvariantKind::kLsqOrder));
}

TEST(InvariantChecker, SpecRatHighBitFlipIsRenameRange) {
  CheckedRig rig("twolf");
  // Flipping bit 6 of a mapping in [16, 64) lands in [80, 128) — past the
  // 80-register physical file.
  std::uint64_t areg = ~0ULL;
  ASSERT_TRUE(rig.AdvanceUntil([&] {
    for (std::uint64_t a = 0; a < 32; ++a) {
      const std::uint64_t p = rig.core.rename_unit().ReadSpecRaw(a);
      if (p >= 16 && p < 64) {
        areg = a;
        return true;
      }
    }
    return false;
  }));
  rig.core.registry().FlipBit(
      LocateNamed(rig.core.registry(), "rename.specrat",
                  static_cast<std::size_t>(areg), 6));
  InvariantChecker* chk = rig.core.invariant_checker();
  EXPECT_GT(chk->Check(rig.core), 0u);
  EXPECT_TRUE(chk->SawKind(InvariantKind::kRenameRange));
}

TEST(InvariantChecker, DetectionIsSameCycleAndCounted) {
  obs::MetricsRegistry metrics;
  obs::ObsSinks sinks;
  sinks.metrics = &metrics;

  CoreConfig cfg;
  cfg.check_invariants = true;
  const Program prog = BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
  Core core(cfg, prog);
  core.AttachObs(&sinks);
  for (int c = 0; c < 3000; ++c) core.Cycle();
  ASSERT_EQ(core.invariant_checker()->total(), 0u);

  core.registry().FlipBit(LocateNamed(core.registry(), "rob.count", 0, 0));
  core.Cycle();  // the very next cycle boundary must already report it

  const InvariantChecker* chk = core.invariant_checker();
  ASSERT_GT(chk->total(), 0u);
  EXPECT_TRUE(chk->SawKind(InvariantKind::kQueuePointers));
  EXPECT_EQ(chk->violations().front().cycle, core.stats().cycles);
  EXPECT_GE(metrics.GetCounter("check.violations.queue_pointers").value(),
            1u);
}

// --- checked campaigns -----------------------------------------------------

CampaignSpec SmallLatchCampaign() {
  CampaignSpec spec;
  spec.workload = "gzip";
  spec.trials = 120;
  spec.include_ram = false;  // latch faults hit queue-control state often
  spec.golden.warmup = 12000;
  spec.golden.points = 3;
  spec.golden.spacing = 500;
  spec.golden.window = 3000;
  spec.golden.slack = 800;
  return spec;
}

TEST(CheckedCampaign, QuarantinesStructuralViolationsAndBypassesCache) {
  ScopedCacheDir cache("tfi_test_checked_campaign");
  const CampaignSpec spec = SmallLatchCampaign();

  obs::MetricsRegistry metrics;
  CampaignOptions opt;
  opt.verbose = false;
  opt.use_cache = true;  // must be *bypassed*, not just cold
  opt.jobs = 2;
  opt.check_invariants = true;
  opt.obs.sinks.metrics = &metrics;
  opt.obs.collect_prop_traces = true;
  const CampaignResult r = RunCampaign(spec, opt);

  // Latch campaigns hit head/tail/count and pointer state frequently; this
  // seed deterministically quarantines at least one trial.
  ASSERT_FALSE(r.quarantined.empty());
  for (const QuarantinedTrial& q : r.quarantined) {
    EXPECT_EQ(r.trials[q.index].outcome, Outcome::kTrialError);
    EXPECT_NE(q.message.find("invariant violation"), std::string::npos)
        << q.message;
    EXPECT_GT(r.prop_traces[q.index].invariant_violations, 0u);
    EXPECT_FALSE(r.prop_traces[q.index].first_violation_kind.empty());
  }
  EXPECT_EQ(metrics.GetCounter("campaign.trials.quarantined").value(),
            r.quarantined.size());
  std::uint64_t kinds_sum = 0;
  for (int k = 0; k < check::kNumInvariantKinds; ++k)
    kinds_sum += metrics
                     .GetCounter(std::string("check.violations.") +
                                 check::InvariantKindName(
                                     static_cast<InvariantKind>(k)))
                     .value();
  EXPECT_GT(kinds_sum, 0u);

  // Re-running the same checked spec must execute live again (no cache file
  // was stored, none is loaded) and reproduce the exact same records.
  obs::MetricsRegistry metrics2;
  CampaignOptions opt2;
  opt2.verbose = false;
  opt2.use_cache = true;
  opt2.check_invariants = true;
  opt2.obs.sinks.metrics = &metrics2;
  const CampaignResult r2 = RunCampaign(spec, opt2);
  EXPECT_EQ(metrics2.GetCounter("campaign.cache.hits").value(), 0u);
  EXPECT_EQ(r2.trials, r.trials);
  EXPECT_EQ(r2.quarantined.size(), r.quarantined.size());

  // The same spec unchecked classifies every trial normally — quarantine is
  // strictly opt-in debug behaviour.
  CampaignOptions unchecked;
  unchecked.verbose = false;
  unchecked.use_cache = false;
  const CampaignResult r3 = RunCampaign(spec, unchecked);
  EXPECT_TRUE(r3.quarantined.empty());
  ASSERT_EQ(r3.trials.size(), r.trials.size());
  // Non-quarantined trials classify identically with and without the
  // checker (observation never changes behaviour).
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    if (r.trials[i].outcome == Outcome::kTrialError) continue;
    EXPECT_EQ(r3.trials[i], r.trials[i]) << "trial " << i;
  }
}

}  // namespace
}  // namespace tfsim
