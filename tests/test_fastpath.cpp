// Trial fast path: word-first-access tracking, the dormancy shortcut, and
// the inject-point snapshot restore. The load-bearing property throughout is
// byte-identity with the slow path — the fast path is pure execution policy.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign_fixture.h"
#include "inject/campaign.h"
#include "inject/trial.h"
#include "obs/prop_trace.h"
#include "state/state_registry.h"
#include "uarch/core.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

// ---------------------------------------------------------------------------
// WordFirstAccessTracker
// ---------------------------------------------------------------------------

TEST(WordFirstAccessTracker, ReportsEarliestAccessAtOrAfterWatchCycle) {
  WordFirstAccessTracker t(8);
  t.Watch(3, 10);
  t.Seal();
  t.SetCycle(8);
  t.OnAccess(3, /*is_write=*/true);  // before the watch window: ignored
  EXPECT_FALSE(t.Done());
  t.SetCycle(12);
  t.OnAccess(3, /*is_write=*/false);
  EXPECT_TRUE(t.Done());
  t.SetCycle(13);
  t.OnAccess(3, /*is_write=*/true);  // later accesses must not overwrite
  const auto fa = t.Lookup(3, 10);
  EXPECT_EQ(fa.cycle, 12);
  EXPECT_FALSE(fa.is_write);
}

TEST(WordFirstAccessTracker, LaterWatchOnSameWordResolvesIndependently) {
  WordFirstAccessTracker t(8);
  t.Watch(5, 4);
  t.Watch(5, 9);
  t.Seal();
  t.SetCycle(6);
  t.OnAccess(5, /*is_write=*/true);
  t.SetCycle(11);
  t.OnAccess(5, /*is_write=*/false);
  const auto a = t.Lookup(5, 4);
  EXPECT_EQ(a.cycle, 6);
  EXPECT_TRUE(a.is_write);
  const auto b = t.Lookup(5, 9);
  EXPECT_EQ(b.cycle, 11);
  EXPECT_FALSE(b.is_write);
}

TEST(WordFirstAccessTracker, OneAccessResolvesEveryPendingEarlierWatch) {
  WordFirstAccessTracker t(4);
  t.Watch(2, 3);
  t.Watch(2, 7);
  t.Seal();
  t.SetCycle(9);
  t.OnAccess(2, /*is_write=*/true);
  EXPECT_EQ(t.Lookup(2, 3).cycle, 9);
  EXPECT_EQ(t.Lookup(2, 7).cycle, 9);
  EXPECT_TRUE(t.Done());
}

TEST(WordFirstAccessTracker, DuplicatePairsCollapse) {
  WordFirstAccessTracker t(4);
  t.Watch(2, 7);
  t.Watch(2, 7);
  t.Seal();
  EXPECT_FALSE(t.Done());
  t.SetCycle(7);
  t.OnAccess(2, /*is_write=*/true);
  EXPECT_TRUE(t.Done());  // one access retires the collapsed pair
}

TEST(WordFirstAccessTracker, WatchedDistinguishesNoDataFromNoAccess) {
  WordFirstAccessTracker t(4);
  t.Watch(1, 5);
  t.Seal();
  // Never accessed: a provable "latent" verdict...
  EXPECT_TRUE(t.Watched(1, 5));
  EXPECT_EQ(t.Lookup(1, 5).cycle, -1);
  // ...which Lookup alone cannot distinguish from "never watched".
  EXPECT_FALSE(t.Watched(1, 6));
  EXPECT_FALSE(t.Watched(0, 5));
  EXPECT_EQ(t.Lookup(0, 5).cycle, -1);
}

TEST(WordFirstAccessTracker, RejectsLateWatchAndBadWord) {
  WordFirstAccessTracker t(4);
  EXPECT_THROW(t.Watch(4, 0), std::out_of_range);
  t.Seal();
  EXPECT_THROW(t.Watch(0, 0), std::logic_error);
}

// A value-preserving Set must still count as a write: the golden machine
// overwrote the word, so an injected bit there is gone from that cycle on.
TEST(StateRegistryTracking, ValuePreservingSetCountsAsWrite) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kCtrl, Storage::kLatch, 4, 16);
  f.Set(1, 42);
  WordFirstAccessTracker t(reg.WordCount());
  for (std::size_t w = 0; w < reg.WordCount(); ++w) t.Watch(w, 1);
  t.Seal();
  reg.SetAccessTracker(&t);
  t.SetCycle(2);
  f.Set(1, 42);  // no-change write
  reg.SetAccessTracker(nullptr);
  int resolved = 0;
  for (std::size_t w = 0; w < reg.WordCount(); ++w) {
    const auto fa = t.Lookup(w, 1);
    if (fa.cycle < 0) continue;
    ++resolved;
    EXPECT_EQ(fa.cycle, 2);
    EXPECT_TRUE(fa.is_write);
  }
  EXPECT_EQ(resolved, 1);
}

TEST(StateRegistryTracking, ReadBeforeWriteReportsRead) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kData, Storage::kRam, 2, 32);
  WordFirstAccessTracker t(reg.WordCount());
  for (std::size_t w = 0; w < reg.WordCount(); ++w) t.Watch(w, 1);
  t.Seal();
  reg.SetAccessTracker(&t);
  t.SetCycle(3);
  (void)f.Get(0);
  t.SetCycle(4);
  f.Set(0, 7);
  reg.SetAccessTracker(nullptr);
  int resolved = 0;
  for (std::size_t w = 0; w < reg.WordCount(); ++w) {
    const auto fa = t.Lookup(w, 1);
    if (fa.cycle < 0) continue;
    ++resolved;
    EXPECT_EQ(fa.cycle, 3);
    EXPECT_FALSE(fa.is_write);  // the read wins; simulation is required
  }
  EXPECT_EQ(resolved, 1);
}

// ---------------------------------------------------------------------------
// TrialRunner fast path vs slow path
// ---------------------------------------------------------------------------

struct FastpathRig {
  CampaignSpec spec;
  std::shared_ptr<const GoldenRun> golden;
  std::vector<TrialSpec> specs;
};

// The pinned shortcut counts below (91/55/28 and 92/65/20) depend on this
// 2500-cycle window.
CampaignSpec FastpathCampaign(int trials) {
  CampaignSpec spec = SmallCampaign(trials);
  spec.golden.window = 2500;
  return spec;
}

FastpathRig MakeRig(CampaignSpec spec) {
  FastpathRig r;
  r.spec = std::move(spec);
  const Program program =
      BuildWorkload(WorkloadByName(r.spec.workload), kCampaignIters);
  Core probe(r.spec.core, program);
  r.specs = MakeTrialSpecs(
      r.spec, probe.registry().InjectableBits(r.spec.include_ram));
  const FastPathPlan plan =
      PlanFastPath(r.spec.golden, r.specs, probe.registry());
  r.golden =
      RecordGolden(r.spec.core, program, r.spec.golden, nullptr, &plan);
  return r;
}

const FastpathRig& Rig() {
  static const FastpathRig rig = MakeRig(FastpathCampaign(160));
  return rig;
}

std::string TraceRow(const obs::PropagationTrace& tr, const std::string& wl,
                     std::size_t i) {
  std::ostringstream os;
  obs::WritePropTraceRow(tr, wl, i, os);
  return os.str();
}

struct ShortcutCounts {
  int shortcut = 0;
  int match_late = 0;
  int gray_latent = 0;
};

// Runs every trial of `rig` on both execution policies, expects identical
// records and propagation traces, and counts the shortcut's verdicts.
ShortcutCounts CompareFastAndSlow(const FastpathRig& rig) {
  TrialRunner fast(rig.golden);
  TrialPolicy slow_policy;
  slow_policy.fast_path = false;
  TrialRunner slow(rig.golden, slow_policy);
  ShortcutCounts n;
  for (std::size_t i = 0; i < rig.specs.size(); ++i) {
    const TrialRunner::Result f = fast.Run(rig.specs[i], /*want_trace=*/true);
    const TrialRunner::Result s = slow.Run(rig.specs[i], /*want_trace=*/true);
    EXPECT_FALSE(s.fast);
    EXPECT_EQ(f.record, s.record) << "trial " << i;
    EXPECT_EQ(TraceRow(f.trace, rig.spec.workload, i),
              TraceRow(s.trace, rig.spec.workload, i))
        << "trial " << i;
    if (!f.fast) continue;
    ++n.shortcut;
    if (f.record.outcome == Outcome::kMicroArchMatch && f.record.cycles > 1)
      ++n.match_late;
    if (f.record.outcome == Outcome::kGrayArea) {
      EXPECT_EQ(f.record.cycles, rig.spec.golden.window);
      ++n.gray_latent;
    }
  }
  return n;
}

// Every record and every propagation trace must be byte-identical between
// the two execution policies, over a population that exercises shortcut
// Matches, latent Grays, and read-forced fallbacks.
TEST(TrialFastPath, RecordsAndTracesByteIdenticalToSlowPath) {
  const ShortcutCounts n = CompareFastAndSlow(Rig());
  // The population must actually exercise the shortcut's verdicts, or this
  // test proves nothing. The exact counts are pinned: a pipeline read or
  // write the first-access tracker gains or loses moves trials between the
  // shortcut and simulation without changing any record, so only these
  // counts catch it.
  EXPECT_EQ(n.shortcut, 91);
  EXPECT_EQ(n.match_late, 55);
  EXPECT_EQ(n.gray_latent, 28);
}

// The same pin on the fully protected core, whose ECC read and scrub paths
// (pointer reads, register-file reads, the corrected architectural view)
// feed the first-access tracker through the codec. A codec that repaired,
// scrubbed or flagged a word differently would change a record or trace,
// or move these counts.
TEST(TrialFastPath, ProtectedCoreRecordsAndTracesByteIdenticalToSlowPath) {
  CampaignSpec spec = FastpathCampaign(160);
  spec.core.protect = ProtectionConfig::All();
  const ShortcutCounts n = CompareFastAndSlow(MakeRig(spec));
  EXPECT_EQ(n.shortcut, 92);
  EXPECT_EQ(n.match_late, 65);
  EXPECT_EQ(n.gray_latent, 20);
}

// The cutoff may only fire at *full* re-convergence. A shortcut Match at
// cycle c must agree with the simulating loop's classification cycle — a
// machine that transiently looks converged (e.g. the injected category's
// hash matches while the fault lives on elsewhere) must not cut early, and
// the tracker's write cycle must be exactly the convergence cycle.
TEST(TrialFastPath, ConvergenceCutoffFiresAtExactConvergenceCycle) {
  const FastpathRig& rig = Rig();
  TrialRunner fast(rig.golden);
  TrialPolicy slow_policy;
  slow_policy.fast_path = false;
  TrialRunner slow(rig.golden, slow_policy);
  const WordFirstAccessTracker& access = *rig.golden->fastpath.access;
  int checked = 0;
  for (const TrialSpec& ts : rig.specs) {
    const TrialRunner::Result f = fast.Run(ts);
    if (!f.fast || f.record.outcome != Outcome::kMicroArchMatch) continue;
    const InjectionSite site =
        ResolveInjectionSite(rig.golden->spec, ts, fast.core().registry());
    std::uint64_t expect_c = 1;
    for (const BitLocation& loc : site.flips) {
      const auto fa =
          access.Lookup(fast.core().registry().WordIndexOf(loc),
                        site.inj_cycle);
      ASSERT_GE(fa.cycle, 0);
      ASSERT_TRUE(fa.is_write);
      expect_c = std::max(
          expect_c, static_cast<std::uint64_t>(fa.cycle) - site.inj_cycle + 1);
    }
    EXPECT_EQ(f.record.cycles, expect_c);
    EXPECT_EQ(slow.Run(ts).record.cycles, f.record.cycles);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

// Multi-bit bursts: several flipped words per trial (and possibly cancelled
// flips revisiting a bit) — the shortcut must wait for the *last* divergent
// word and still agree with the slow path byte-for-byte.
TEST(TrialFastPath, MultiFlipBurstsByteIdentical) {
  CampaignSpec spec = FastpathCampaign(48);
  spec.flips = 3;
  spec.adjacent = true;
  CompareFastAndSlow(MakeRig(spec));
}

// Non-default geometry: the fast path plans over the registry's live word
// space, which a reshaped core changes completely (different field widths,
// different word count). Fast and slow paths must stay byte-identical on a
// shape nothing in the defaults exercises.
TEST(TrialFastPath, NonDefaultGeometryByteIdentical) {
  CampaignSpec spec = FastpathCampaign(48);
  spec.core.rob_entries = 16;
  spec.core.lq_entries = 8;
  spec.core.sq_entries = 8;
  spec.core.phys_regs = 48;
  EXPECT_GT(CompareFastAndSlow(MakeRig(spec)).shortcut, 0)
      << "the reshaped core never took the fast path";
}

// Golden runs recorded without a fast-path plan (fuzz harness, ad-hoc
// tools) must silently take the slow path even when the policy allows fast.
TEST(TrialFastPath, NoPlanMeansSlowPath) {
  const CampaignSpec spec = FastpathCampaign(8);
  const Program program =
      BuildWorkload(WorkloadByName(spec.workload), kCampaignIters);
  const auto golden = RecordGolden(spec.core, program, spec.golden);
  EXPECT_FALSE(golden->fastpath.enabled);
  Core probe(spec.core, program);
  const std::vector<TrialSpec> specs =
      MakeTrialSpecs(spec, probe.registry().InjectableBits(spec.include_ram));
  TrialRunner runner(golden);
  for (const TrialSpec& ts : specs) EXPECT_FALSE(runner.Run(ts).fast);
}

// A changed observation window must never alias cached results.
TEST(TrialFastPath, WindowIsPartOfTheCacheKey) {
  CampaignSpec a = FastpathCampaign(40);
  CampaignSpec b = a;
  b.golden.window += 1;
  EXPECT_NE(a.CacheKey(), b.CacheKey());
}

}  // namespace
}  // namespace tfsim
