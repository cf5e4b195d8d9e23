// asmlint adversarial fixtures: each seeded defect must surface as exactly
// the expected finding class at the expected location, clean programs must
// stay clean, and the allowlist must suppress findings without rotting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analyze/asm/asmlint.h"
#include "util/fs.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

using analyze::AllowEntry;
using analyze::AsmFinding;
using analyze::AsmFindingKind;
using analyze::AsmLintOptions;
using analyze::Lift;
using analyze::RunAsmLint;

std::vector<AsmFinding> LintSource(const std::string& src,
                                   std::vector<AllowEntry>* allow = nullptr) {
  std::vector<AllowEntry> none;
  AsmLintOptions opt;
  opt.unit = "fixture";
  return RunAsmLint(Lift(Assemble(src)), allow ? *allow : none, opt);
}

bool HasKind(const std::vector<AsmFinding>& fs, AsmFindingKind k) {
  return std::any_of(fs.begin(), fs.end(),
                     [k](const AsmFinding& f) { return f.kind == k; });
}

// A minimal clean program: defines everything it reads, stores are read
// back, and it exits.
constexpr const char* kClean =
    "_start: addqi r31, 3, r1\n"
    "        addqi r31, 4, r2\n"
    "        addq r1, r2, r3\n"
    "        la r4, 0x40000\n"
    "        stq r3, 0(r4)\n"
    "        ldq a1, 0(r4)\n"
    "        li a0, 0\n"
    "        li v0, 1\n"
    "        syscall\n";

TEST(AsmLint, CleanFixtureHasNoFindings) {
  const auto fs = LintSource(kClean);
  EXPECT_TRUE(fs.empty()) << (fs.empty() ? "" : fs[0].Format());
}

TEST(AsmLint, UseBeforeDef) {
  const auto fs = LintSource(
      "_start: addq r4, r5, r6\n"  // r4, r5 never written on any path
      "        la r7, 0x40000\n"
      "        stq r6, 0(r7)\n"
      "        li v0, 1\n"
      "        syscall\n");
  ASSERT_TRUE(HasKind(fs, AsmFindingKind::kUseBeforeDef));
  const auto it =
      std::find_if(fs.begin(), fs.end(), [](const AsmFinding& f) {
        return f.kind == AsmFindingKind::kUseBeforeDef;
      });
  EXPECT_EQ(it->where, "_start");
}

TEST(AsmLint, DefinedOnOnlyOnePathIsStillUseBeforeDef) {
  const auto fs = LintSource(
      "_start: addqi r31, 1, r1\n"
      "        la r3, 0x40000\n"
      "        beq r1, skip\n"
      "        addqi r31, 5, r2\n"
      "skip:   stq r2, 0(r3)\n"  // r2 undefined when the branch is taken
      "        li v0, 1\n"
      "        syscall\n");
  EXPECT_TRUE(HasKind(fs, AsmFindingKind::kUseBeforeDef));
}

TEST(AsmLint, DeadValue) {
  const auto fs = LintSource(
      "_start: addqi r31, 3, r1\n"
      "        addq r1, r1, r9\n"  // r9 never read again
      "        li v0, 1\n"
      "        syscall\n");
  ASSERT_TRUE(HasKind(fs, AsmFindingKind::kDeadValue));
}

TEST(AsmLint, TrappingDeadValueIsNotReported) {
  // divq can fault on a zero divisor, so a dead result is not removable and
  // must not be flagged as a dead value.
  const auto fs = LintSource(
      "_start: addqi r31, 3, r1\n"
      "        divq r1, r1, r9\n"
      "        li v0, 1\n"
      "        syscall\n");
  EXPECT_FALSE(HasKind(fs, AsmFindingKind::kDeadValue));
}

TEST(AsmLint, DeadStore) {
  const auto fs = LintSource(
      "_start: addqi r31, 3, r1\n"
      "        la r2, 0x40000\n"
      "        stq r1, 0(r2)\n"   // overwritten before any read
      "        stq r1, 8(r2)\n"
      "        stq r1, 0(r2)\n"
      "        ldq a1, 0(r2)\n"
      "        li a0, 0\n"
      "        li v0, 1\n"
      "        syscall\n");
  ASSERT_TRUE(HasKind(fs, AsmFindingKind::kDeadStore));
  // Exactly the first store of the matching pair, not the disjoint one.
  std::size_t n = 0;
  for (const auto& f : fs)
    if (f.kind == AsmFindingKind::kDeadStore) ++n;
  EXPECT_EQ(n, 1u);
}

TEST(AsmLint, InterveningLoadClearsDeadStore) {
  const auto fs = LintSource(
      "_start: addqi r31, 3, r1\n"
      "        la r2, 0x40000\n"
      "        stq r1, 0(r2)\n"
      "        ldq r3, 0(r2)\n"
      "        stq r3, 0(r2)\n"
      "        ldq a1, 0(r2)\n"
      "        li a0, 0\n"
      "        li v0, 1\n"
      "        syscall\n");
  EXPECT_FALSE(HasKind(fs, AsmFindingKind::kDeadStore));
}

TEST(AsmLint, UnreachableBlock) {
  const auto fs = LintSource(
      "_start: br done\n"
      "        addqi r31, 1, r1\n"  // skipped forever
      "        la r2, 0x40000\n"
      "        stq r1, 0(r2)\n"
      "done:   li v0, 1\n"
      "        syscall\n");
  ASSERT_TRUE(HasKind(fs, AsmFindingKind::kUnreachable));
}

TEST(AsmLint, IndirectUnresolved) {
  const auto fs = LintSource(
      "_start: la r4, 0x40000\n"
      "        ldq r5, 0(r4)\n"
      "        jmp r31, r5\n");
  ASSERT_TRUE(HasKind(fs, AsmFindingKind::kIndirectUnresolved));
  // With the CFG under-approximated, unreachable findings are suppressed.
  EXPECT_FALSE(HasKind(fs, AsmFindingKind::kUnreachable));
}

TEST(AsmLint, MisalignedStaticAddress) {
  const auto fs = LintSource(
      "_start: la r2, 0x40003\n"
      "        ldq r1, 0(r2)\n"  // 8-byte load at 0x40003: guaranteed trap
      "        li v0, 1\n"
      "        syscall\n");
  ASSERT_TRUE(HasKind(fs, AsmFindingKind::kMisaligned));
}

TEST(AsmLint, StackDiscipline) {
  const auto fs = LintSource(
      "_start: li sp, 0x50000\n"       // materialization: allowed
      "        subqi sp, 16, sp\n"     // immediate adjust: allowed
      "        addq r1, r2, sp\n"      // arbitrary arithmetic into sp: finding
      "        li v0, 1\n"
      "        syscall\n");
  std::size_t n = 0;
  for (const auto& f : fs)
    if (f.kind == AsmFindingKind::kStackDiscipline) ++n;
  EXPECT_EQ(n, 1u);
}

TEST(AsmLint, ReachableIllegalWord) {
  const auto fs = LintSource(
      "_start: addqi r31, 1, r1\n"
      "        .long 0xffffffff\n"
      "        li v0, 1\n"
      "        syscall\n");
  ASSERT_TRUE(HasKind(fs, AsmFindingKind::kIllegalWord));
}

TEST(AsmLint, AllowlistSuppressesAndTracksUse) {
  std::vector<AllowEntry> allow(1);
  allow[0].key = "fixture.dead-value._start+0x4";
  allow[0].why = "test";
  const auto fs = LintSource(
      "_start: addqi r31, 3, r1\n"
      "        addq r1, r1, r9\n"
      "        li v0, 1\n"
      "        syscall\n",
      &allow);
  EXPECT_FALSE(HasKind(fs, AsmFindingKind::kDeadValue));
  EXPECT_TRUE(allow[0].used);
  EXPECT_TRUE(analyze::UnusedAllowFindings(allow).empty());
}

TEST(AsmLint, UnusedAllowlistEntryIsAFinding) {
  std::vector<AllowEntry> allow(1);
  allow[0].key = "fixture.dead-value.nowhere";
  allow[0].why = "stale";
  const auto unused = analyze::UnusedAllowFindings(allow);
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0].kind, AsmFindingKind::kUnusedAllowlist);
}

// The shipping allowlist must exactly cover the suite: every workload lints
// clean through it and every entry is consumed (the same invariant the
// asmlint_workloads ctest enforces, pinned here at the API level).
TEST(AsmLint, WorkloadsLintCleanThroughShippedAllowlist) {
  std::vector<AllowEntry> allow;
  std::string error;
  ASSERT_TRUE(analyze::ParseAllowlist(
      ReadFile(std::string(TFSIM_SOURCE_DIR) + "/tools/asmlint_allow.txt"),
      &allow, &error))
      << error;

  for (const auto& w : AllWorkloads()) {
    AsmLintOptions opt;
    opt.unit = w.name;
    const auto fs =
        RunAsmLint(Lift(BuildWorkload(w, kCampaignIters)), allow, opt);
    EXPECT_TRUE(fs.empty())
        << w.name << ": " << (fs.empty() ? "" : fs[0].Format());
  }
  EXPECT_TRUE(analyze::UnusedAllowFindings(allow).empty());
}

}  // namespace
}  // namespace tfsim
