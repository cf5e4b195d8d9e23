// The software-hardening transform and its static verifier: hardened
// programs must verify clean and execute architecturally identically to the
// originals; every seeded corruption class must surface as the matching
// VerifyHardened finding; and hardened workloads must slot into the campaign
// machinery as first-class deterministic workloads with their own cache keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "arch/functional_sim.h"
#include "inject/campaign.h"
#include "isa/isa.h"
#include "soft/harden.h"
#include "uarch/core.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

using analyze::AsmFinding;
using analyze::AsmFindingKind;

constexpr HardenMode kAllModes[] = {HardenMode::kCfc, HardenMode::kDup,
                                    HardenMode::kFull};

struct ArchResult {
  std::uint64_t exit_code = 0;
  std::vector<std::uint8_t> output;
  bool exited = false;
  bool operator==(const ArchResult&) const = default;
};

ArchResult RunFunctional(const Program& p) {
  FunctionalSim sim(p);
  sim.Run(50'000'000);
  return {sim.state().exit_code, sim.state().output, sim.state().exited};
}

std::uint32_t TextWord(const Program& p, std::size_t idx) {
  std::uint32_t w;
  std::memcpy(&w, p.chunks.at(0).bytes.data() + 4 * idx, 4);
  return w;
}

void SetTextWord(Program& p, std::size_t idx, std::uint32_t w) {
  std::memcpy(p.chunks.at(0).bytes.data() + 4 * idx, &w, 4);
}

bool HasKind(const std::vector<AsmFinding>& fs, AsmFindingKind k) {
  return std::any_of(fs.begin(), fs.end(),
                     [k](const AsmFinding& f) { return f.kind == k; });
}

// Corrupts the first word of the first component matching (kind, what) with
// a same-length replacement, so the word-diff stays aligned and the finding
// is attributable to exactly that component class.
Program CorruptComponent(const HardenedProgram& hp, AsmFindingKind kind,
                         const char* what = nullptr) {
  for (const auto& c : hp.components) {
    if (c.kind != kind || c.num_words == 0) continue;
    if (what && std::string(c.what) != what) continue;
    Program p = hp.program;
    const std::uint32_t old = TextWord(p, c.first_word);
    std::uint32_t repl = EncodeI(Op::kAddqi, 0, 1, 42);
    if (repl == old) repl = EncodeI(Op::kAddqi, 0, 1, 43);
    SetTextWord(p, c.first_word, repl);
    return p;
  }
  ADD_FAILURE() << "no component of the requested kind";
  return hp.program;
}

TEST(Harden, GeneratedVariantsVerifyCleanAcrossTheSuite) {
  for (const auto& w : AllWorkloads()) {
    const Program orig = BuildWorkload(w, kCampaignIters);
    for (HardenMode m : kAllModes) {
      const HardenedProgram hp = Harden(orig, m);
      const auto fs = VerifyHardened(orig, hp.program, m, w.name);
      EXPECT_TRUE(fs.empty()) << w.name << "+" << HardenModeName(m) << ": "
                              << (fs.empty() ? "" : fs[0].Format());
    }
  }
}

TEST(Harden, HardenedExecutionIsArchitecturallyIdentical) {
  for (const auto& w : AllWorkloads()) {
    const Program orig =
        BuildWorkload(w, 3, /*emit_each_iteration=*/true);
    const ArchResult ref = RunFunctional(orig);
    ASSERT_TRUE(ref.exited) << w.name;
    for (HardenMode m : kAllModes) {
      const ArchResult got = RunFunctional(Harden(orig, m).program);
      EXPECT_EQ(got, ref) << w.name << "+" << HardenModeName(m);
    }
  }
}

TEST(Harden, HardenedProgramRunsOnThePipeline) {
  // The hardened image is an ordinary program: the out-of-order core must
  // execute it to the same architectural output the functional sim produces.
  const Program orig =
      BuildWorkload(WorkloadByName("gzip"), 2, /*emit_each_iteration=*/true);
  const Program hard = Harden(orig, HardenMode::kFull).program;
  const ArchResult ref = RunFunctional(hard);
  ASSERT_TRUE(ref.exited);

  Core core(CoreConfig{}, hard);
  for (int c = 0; c < 2'000'000 && !core.exited(); ++c) {
    core.Cycle();
    ASSERT_EQ(core.halted_exception(), Exception::kNone);
  }
  ASSERT_TRUE(core.exited());
  EXPECT_EQ(core.output(), ref.output);
}

TEST(Harden, DetectsFaultsAtRuntime) {
  // A bit flip in a duplicated value between its shadow store and its guard
  // must fail-stop: the guard loads the shadow, compares, and branches to
  // the illegal-opcode fault block instead of silently corrupting output.
  const Program orig =
      BuildWorkload(WorkloadByName("mcf"), 2, /*emit_each_iteration=*/true);
  const HardenedProgram hp = Harden(orig, HardenMode::kDup);
  FunctionalSim sim(hp.program);
  sim.Run(2'000);  // mid-execution, past the prologue
  ASSERT_TRUE(sim.Running());
  // Corrupt every non-reserved live register the next store will guard;
  // flipping a low bit of a value register models the paper's SDC path.
  bool detected = false;
  for (int r = 1; r <= 8 && !detected; ++r) {
    FunctionalSim trial(hp.program);
    trial.Run(2'000);
    trial.state().regs[r] ^= 1;
    trial.Run(50'000'000);
    detected = trial.pending_exception() == Exception::kIllegalOpcode;
  }
  EXPECT_TRUE(detected);
}

TEST(Harden, VerifierRejectsSeededCorruptions) {
  const Program orig = BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
  const HardenedProgram hp = Harden(orig, HardenMode::kFull);

  const struct {
    AsmFindingKind kind;
    const char* what;  // nullptr = any component of the kind
  } cases[] = {
      {AsmFindingKind::kUnduplicatedValue, "duplication"},
      {AsmFindingKind::kUnguardedStore, nullptr},
      {AsmFindingKind::kUnguardedBranch, nullptr},
      {AsmFindingKind::kSignatureEdge, nullptr},
      {AsmFindingKind::kHardenStructure, "master"},
  };
  for (const auto& c : cases) {
    const Program bad = CorruptComponent(hp, c.kind, c.what);
    const auto fs = VerifyHardened(orig, bad, HardenMode::kFull, "gzip");
    EXPECT_TRUE(HasKind(fs, c.kind))
        << "corrupting a " << static_cast<int>(c.kind)
        << " component produced no such finding";
  }
}

TEST(Harden, VerifierRejectsDefangedFaultBlock) {
  const Program orig = BuildWorkload(WorkloadByName("mcf"), kCampaignIters);
  const HardenedProgram hp = Harden(orig, HardenMode::kFull);
  Program bad = hp.program;
  // Replace the illegal-opcode trap with a harmless nop-like instruction:
  // detection would silently continue instead of fail-stopping.
  SetTextWord(bad, hp.fault_word, EncodeI(Op::kAddqi, 31, 31, 0));
  const auto fs = VerifyHardened(orig, bad, HardenMode::kFull, "mcf");
  EXPECT_TRUE(HasKind(fs, AsmFindingKind::kHardenStructure));
}

TEST(Harden, VerifierRejectsShadowClobberingMaster) {
  const Program orig = BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
  const HardenedProgram hp = Harden(orig, HardenMode::kFull);
  // Find a master component and make it write the shadow base register.
  for (const auto& c : hp.components) {
    if (std::string(c.what) != "master" || c.num_words == 0) continue;
    Program bad = hp.program;
    SetTextWord(bad, c.first_word,
                EncodeI(Op::kAddqi, 31, hp.plan.sb, 0));
    const auto fs = VerifyHardened(orig, bad, HardenMode::kFull, "gzip");
    EXPECT_TRUE(HasKind(fs, AsmFindingKind::kShadowClobber));
    return;
  }
  FAIL() << "no master component found";
}

TEST(Harden, VerifierRejectsTamperedData) {
  const Program orig = BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
  const HardenedProgram hp = Harden(orig, HardenMode::kFull);
  Program bad = hp.program;
  ASSERT_GT(bad.chunks.size(), 1u);
  bad.chunks[1].bytes[0] ^= 0xff;
  const auto fs = VerifyHardened(orig, bad, HardenMode::kFull, "gzip");
  EXPECT_TRUE(HasKind(fs, AsmFindingKind::kHardenStructure));
}

TEST(Harden, PlanReservesOnlyUnusedRegisters) {
  const Program orig = BuildWorkload(WorkloadByName("vpr"), kCampaignIters);
  const analyze::AsmProgram ap = analyze::Lift(orig);
  std::uint32_t used = 0;
  for (const auto& i : ap.insts)
    used |= analyze::UseMask(i.d) | analyze::DefMask(i.d);
  const analyze::Cfg cfg = analyze::BuildCfg(ap);
  const HardenPlan plan = PlanHarden(ap, cfg, HardenMode::kFull);
  EXPECT_EQ(plan.ReservedMask() & used, 0u);
  // Deterministic: replanning yields the same reservations and signatures.
  const HardenPlan again = PlanHarden(ap, cfg, HardenMode::kFull);
  EXPECT_EQ(plan.sb, again.sb);
  EXPECT_EQ(plan.g, again.g);
  EXPECT_EQ(plan.shadow_base, again.shadow_base);
  EXPECT_EQ(plan.sig, again.sig);
}

TEST(Harden, RejectsUnresolvedIndirection) {
  const Program p = Assemble(
      "_start: la r4, 0x40000\n"
      "        ldq r5, 0(r4)\n"
      "        jmp r31, r5\n");
  EXPECT_THROW(Harden(p, HardenMode::kFull), std::runtime_error);
}

TEST(Harden, ParseHardenSuffix) {
  std::string base;
  EXPECT_EQ(ParseHardenSuffix("gzip", &base), std::nullopt);
  EXPECT_EQ(ParseHardenSuffix("gzip+sw", &base),
            std::optional<HardenMode>(HardenMode::kFull));
  EXPECT_EQ(base, "gzip");
  EXPECT_EQ(ParseHardenSuffix("mcf+swcfc", &base),
            std::optional<HardenMode>(HardenMode::kCfc));
  EXPECT_EQ(base, "mcf");
  EXPECT_EQ(ParseHardenSuffix("vpr+swdup", &base),
            std::optional<HardenMode>(HardenMode::kDup));
  EXPECT_EQ(base, "vpr");
}

TEST(Harden, ResolveCampaignProgramMatchesDirectConstruction) {
  const Program direct = Harden(
      BuildWorkload(WorkloadByName("gzip"), kCampaignIters), HardenMode::kDup)
                             .program;
  const Program resolved = ResolveCampaignProgram("gzip+swdup");
  ASSERT_EQ(resolved.chunks.size(), direct.chunks.size());
  for (std::size_t i = 0; i < direct.chunks.size(); ++i) {
    EXPECT_EQ(resolved.chunks[i].addr, direct.chunks[i].addr);
    EXPECT_EQ(resolved.chunks[i].bytes, direct.chunks[i].bytes);
  }
  EXPECT_EQ(resolved.entry, direct.entry);
}

TEST(Harden, HardenedWorkloadsGetDistinctCacheKeys) {
  CampaignSpec spec;
  spec.workload = "gzip";
  std::vector<std::string> keys;
  for (const char* w : {"gzip", "gzip+sw", "gzip+swdup", "gzip+swcfc"}) {
    spec.workload = w;
    keys.push_back(spec.CacheKey());
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

TEST(Harden, HardenedCampaignIsJobsInvariant) {
  GoldenSpec gs;
  gs.warmup = 12000;
  gs.points = 3;
  gs.spacing = 500;
  gs.window = 4000;
  gs.slack = 1000;
  CampaignSpec spec;
  spec.workload = "gzip+sw";
  spec.trials = 16;
  spec.golden = gs;

  CampaignOptions opt;
  opt.verbose = false;
  opt.use_cache = false;
  opt.jobs = 1;
  const CampaignResult r1 = RunCampaign(spec, opt);
  opt.jobs = 4;
  const CampaignResult r4 = RunCampaign(spec, opt);
  ASSERT_EQ(r1.trials.size(), 16u);
  EXPECT_EQ(r1.trials, r4.trials);
  EXPECT_EQ(r1.ByOutcome(), r4.ByOutcome());
}

}  // namespace
}  // namespace tfsim
