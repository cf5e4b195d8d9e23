// The static-analysis substrate: Lift, canonical-word round-tripping, CFG
// recovery (calls, returns, resolved indirections, exit syscalls,
// dominators), and the register dataflow analyses, on small fixtures and on
// every workload in the suite.
#include <gtest/gtest.h>

#include <string>

#include "analyze/asm/cfg.h"
#include "analyze/asm/dataflow.h"
#include "isa/assemble.h"
#include "isa/isa.h"
#include "util/fs.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

using analyze::AsmProgram;
using analyze::BuildCfg;
using analyze::Cfg;
using analyze::Dataflow;
using analyze::kNoBlock;
using analyze::Lift;

AsmProgram LiftSource(const std::string& src) { return Lift(Assemble(src)); }

// Blocks are in address order; the block holding an instruction address is
// the stable way to name a block in a fixture.
std::size_t BlockAt(const Cfg& cfg, std::uint64_t addr) {
  const auto idx = cfg.prog->IndexOf(addr);
  EXPECT_TRUE(idx.has_value()) << "no instruction at " << std::hex << addr;
  return cfg.block_of_inst[*idx];
}

TEST(AsmLift, DecodesTextAndSymbols) {
  const AsmProgram p = LiftSource(
      "_start: addq r1, r2, r3\n"
      "loop:   subqi r3, 1, r3\n"
      "        bne r3, loop\n"
      "        li v0, 1\n"
      "        syscall\n");
  ASSERT_EQ(p.insts.size(), 6u);  // li expands to ldah+lda
  EXPECT_EQ(p.entry, kAsmTextBase);
  EXPECT_EQ(p.insts[0].addr, kAsmTextBase);
  EXPECT_EQ(p.insts[0].d.op, Op::kAddq);
  EXPECT_TRUE(p.insts[0].canonical);
  EXPECT_EQ(p.symbols.at("loop"), kAsmTextBase + 4);
  EXPECT_EQ(p.IndexOf(kAsmTextBase + 8), std::optional<std::size_t>(2));
  EXPECT_FALSE(p.IndexOf(kAsmTextBase + 2).has_value());
  EXPECT_EQ(p.Locate(kAsmTextBase + 8), "loop+0x4");
}

TEST(AsmLift, NonCanonicalWordsAreFlagged) {
  const AsmProgram p = LiftSource(
      "_start: addq r1, r2, r3\n"
      "        .long 0xffffffff\n");
  ASSERT_EQ(p.insts.size(), 2u);
  EXPECT_TRUE(p.insts[0].canonical);
  EXPECT_FALSE(p.insts[1].canonical);
}

// Assemble -> DisassembleProgram -> Assemble is a fixed point on every
// workload: byte-identical chunks, same entry, and the disassembly itself is
// stable. This pins the canonical-form invariant the whole analysis stack
// (and the hardening verifier's word-diff) relies on.
TEST(AsmRoundTrip, WorkloadsReachFixedPoint) {
  for (const auto& w : AllWorkloads()) {
    const Program p = BuildWorkload(w, kCampaignIters);
    const std::string src = analyze::DisassembleProgram(p);
    const Program p2 = Assemble(src);
    EXPECT_EQ(p.entry, p2.entry) << w.name;
    ASSERT_EQ(p.chunks.size(), p2.chunks.size()) << w.name;
    for (std::size_t i = 0; i < p.chunks.size(); ++i) {
      EXPECT_EQ(p.chunks[i].addr, p2.chunks[i].addr) << w.name;
      EXPECT_EQ(p.chunks[i].bytes, p2.chunks[i].bytes) << w.name;
    }
    EXPECT_EQ(analyze::DisassembleProgram(p2), src) << w.name;
  }
}

TEST(AsmRoundTrip, ExampleProgramReachesFixedPoint) {
  const Program p =
      Assemble(ReadFile(std::string(TFSIM_SOURCE_DIR) + "/examples/hello.s"));
  const std::string src = analyze::DisassembleProgram(p);
  const Program p2 = Assemble(src);
  EXPECT_EQ(p.entry, p2.entry);
  ASSERT_EQ(p.chunks.size(), p2.chunks.size());
  for (std::size_t i = 0; i < p.chunks.size(); ++i)
    EXPECT_EQ(p.chunks[i].bytes, p2.chunks[i].bytes);
}

TEST(AsmCfg, DiamondShapeAndDominators) {
  const AsmProgram p = LiftSource(
      "_start: beq r1, else\n"         // b0
      "        addqi r2, 1, r2\n"      // b1 (then)
      "        br join\n"
      "else:   addqi r2, 2, r2\n"      // b2
      "join:   li v0, 1\n"             // b3
      "        syscall\n");
  const Cfg cfg = BuildCfg(p);
  ASSERT_EQ(cfg.blocks.size(), 4u);
  const std::size_t b0 = cfg.entry_block;
  const std::size_t b1 = BlockAt(cfg, kAsmTextBase + 4);
  const std::size_t b2 = BlockAt(cfg, p.symbols.at("else"));
  const std::size_t b3 = BlockAt(cfg, p.symbols.at("join"));
  // Successor order for conditional branches is [target, fallthrough].
  EXPECT_EQ(cfg.blocks[b0].succs, (std::vector<std::size_t>{b2, b1}));
  EXPECT_EQ(cfg.blocks[b1].succs, (std::vector<std::size_t>{b3}));
  EXPECT_EQ(cfg.blocks[b2].succs, (std::vector<std::size_t>{b3}));
  EXPECT_TRUE(cfg.blocks[b3].is_exit);
  EXPECT_TRUE(cfg.blocks[b3].succs.empty());
  EXPECT_TRUE(cfg.Dominates(b0, b3));
  EXPECT_FALSE(cfg.Dominates(b1, b3));
  EXPECT_FALSE(cfg.Dominates(b2, b3));
  EXPECT_EQ(cfg.idom[b3], b0);
  EXPECT_TRUE(cfg.out_of_text.empty());
  EXPECT_TRUE(cfg.unresolved_indirect.empty());
}

TEST(AsmCfg, CallEdgesAreRasAware) {
  // Two call sites into one function: each call block's successor is the
  // callee entry, and the ret block's successors are exactly the two return
  // points (not every return point in the program).
  const AsmProgram p = LiftSource(
      "_start: bsr ra, fn\n"
      "ret1:   bsr ra, fn\n"
      "ret2:   li v0, 1\n"
      "        syscall\n"
      "fn:     addqi r4, 1, r4\n"
      "        ret r31, ra\n");
  const Cfg cfg = BuildCfg(p);
  const std::size_t c1 = cfg.entry_block;
  const std::size_t c2 = BlockAt(cfg, p.symbols.at("ret1"));
  const std::size_t rp2 = BlockAt(cfg, p.symbols.at("ret2"));
  const std::size_t fn = BlockAt(cfg, p.symbols.at("fn"));
  EXPECT_TRUE(cfg.blocks[c1].is_call);
  EXPECT_EQ(cfg.blocks[c1].call_target, std::optional<std::size_t>(fn));
  EXPECT_EQ(cfg.blocks[c1].succs, (std::vector<std::size_t>{fn}));
  EXPECT_EQ(cfg.ReturnPoint(c1), std::optional<std::size_t>(c2));
  // The function body may span several blocks; the ret block is the last.
  const std::size_t rb = BlockAt(cfg, p.symbols.at("fn") + 4);
  EXPECT_TRUE(cfg.blocks[rb].is_ret);
  std::vector<std::size_t> ret_succs = cfg.blocks[rb].succs;
  std::sort(ret_succs.begin(), ret_succs.end());
  std::vector<std::size_t> expect = {c2, rp2};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(ret_succs, expect);
  EXPECT_EQ(cfg.func_of[fn], fn);
  EXPECT_EQ(cfg.func_of[cfg.entry_block], cfg.entry_block);
}

TEST(AsmCfg, IndirectJumpResolvedThroughLiPair) {
  const AsmProgram p = LiftSource(
      "_start: la r5, target\n"
      "        jmp r31, r5\n"
      "        addqi r1, 1, r1\n"  // skipped
      "target: li v0, 1\n"
      "        syscall\n");
  const Cfg cfg = BuildCfg(p);
  EXPECT_TRUE(cfg.unresolved_indirect.empty());
  const std::size_t tb = BlockAt(cfg, p.symbols.at("target"));
  EXPECT_EQ(cfg.blocks[cfg.entry_block].succs,
            (std::vector<std::size_t>{tb}));
  // The skipped straight-line code is present but unreached.
  const std::size_t skipped = BlockAt(cfg, p.symbols.at("target") - 4);
  EXPECT_FALSE(cfg.reachable[skipped]);
}

TEST(AsmCfg, UnmaterializedIndirectIsRecorded) {
  const AsmProgram p = LiftSource(
      "_start: la r4, 0x40000\n"
      "        ldq r5, 0(r4)\n"
      "        jmp r31, r5\n");
  const Cfg cfg = BuildCfg(p);
  EXPECT_EQ(cfg.unresolved_indirect.size(), 1u);
  EXPECT_TRUE(cfg.blocks[cfg.entry_block].indirect_unresolved);
}

TEST(AsmCfg, NonExitSyscallFallsThrough) {
  const AsmProgram p = LiftSource(
      "_start: li v0, 2\n"   // kSysWrite
      "        syscall\n"
      "after:  li v0, 1\n"
      "        syscall\n");
  const Cfg cfg = BuildCfg(p);
  const std::size_t b0 = cfg.entry_block;
  const std::size_t b1 = BlockAt(cfg, p.symbols.at("after"));
  EXPECT_FALSE(cfg.blocks[b0].is_exit);
  EXPECT_EQ(cfg.blocks[b0].succs, (std::vector<std::size_t>{b1}));
  EXPECT_TRUE(cfg.blocks[b1].is_exit);
}

TEST(AsmCfg, MaterializedConstPatterns) {
  const AsmProgram p = LiftSource(
      "_start: li r5, 0x123456\n"
      "        addqi r31, 7, r6\n"
      "        ldah r7, 2\n"
      "        jmp r31, r5\n");
  const Cfg cfg = BuildCfg(p);
  const auto idx = p.IndexOf(kAsmTextBase + 4 * 4);  // the jmp (li = 2 words)
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(analyze::MaterializedConst(cfg, *idx, 5),
            std::optional<std::int64_t>(0x123456));
  EXPECT_EQ(analyze::MaterializedConst(cfg, *idx, 6),
            std::optional<std::int64_t>(7));
  EXPECT_EQ(analyze::MaterializedConst(cfg, *idx, 7),
            std::optional<std::int64_t>(2 << 16));
  EXPECT_FALSE(analyze::MaterializedConst(cfg, *idx, 8).has_value());
}

TEST(AsmDataflow, UseDefMasks) {
  const AsmProgram p = LiftSource(
      "_start: addq r1, r2, r3\n"
      "        stq r4, 8(r5)\n"
      "        li v0, 1\n"
      "        syscall\n");
  using analyze::DefMask;
  using analyze::UseMask;
  EXPECT_EQ(UseMask(p.insts[0].d), (1u << 1) | (1u << 2));
  EXPECT_EQ(DefMask(p.insts[0].d), 1u << 3);
  EXPECT_EQ(UseMask(p.insts[1].d), (1u << 4) | (1u << 5));
  EXPECT_EQ(DefMask(p.insts[1].d), 0u);
  // syscall: uses the ABI registers (v0, a0, a1), defines v0.
  const auto& sys = p.insts.back().d;
  EXPECT_EQ(UseMask(sys), (1u << 0) | (1u << 16) | (1u << 17));
  EXPECT_EQ(DefMask(sys), 1u << 0);
}

TEST(AsmDataflow, LivenessAcrossBranch) {
  const AsmProgram p = LiftSource(
      "_start: addqi r31, 1, r1\n"
      "        addqi r31, 2, r2\n"
      "        beq r1, skip\n"
      "        addq r2, r2, r3\n"
      "skip:   li v0, 1\n"
      "        syscall\n");
  const Cfg cfg = BuildCfg(p);
  const Dataflow df(cfg);
  const std::size_t then_b = BlockAt(cfg, p.symbols.at("skip") - 4);
  // r2 is live into the then-block (used by addq); r1 is not (dead after the
  // branch decision).
  EXPECT_TRUE(df.LiveIn(then_b) & (1u << 2));
  EXPECT_FALSE(df.LiveIn(then_b) & (1u << 1));
  // r3 is live out of nothing (never used).
  EXPECT_FALSE(df.LiveOut(then_b) & (1u << 3));
}

TEST(AsmDataflow, MaybeUninitTracksPaths) {
  const AsmProgram p = LiftSource(
      "_start: beq r1, skip\n"
      "        addqi r31, 5, r2\n"
      "skip:   addq r2, r2, r3\n"  // r2 defined on only one path
      "        li v0, 1\n"
      "        syscall\n");
  const Cfg cfg = BuildCfg(p);
  const Dataflow df(cfg);
  const std::size_t join = BlockAt(cfg, p.symbols.at("skip"));
  EXPECT_TRUE(df.MaybeUninitIn(join) & (1u << 2));
  EXPECT_TRUE(df.MaybeUninitIn(join) & (1u << 1));  // r1 never defined
}

TEST(AsmDataflow, ReachingDefsKilledByRedefinition) {
  const AsmProgram p = LiftSource(
      "_start: addqi r31, 1, r1\n"   // inst 0: def r1 (killed below)
      "        addqi r31, 2, r1\n"   // inst 1: def r1
      "loop:   subqi r1, 1, r1\n"    // inst 2
      "        bne r1, loop\n"
      "        li v0, 1\n"
      "        syscall\n");
  const Cfg cfg = BuildCfg(p);
  const Dataflow df(cfg);
  const std::size_t loop = BlockAt(cfg, p.symbols.at("loop"));
  const auto& reach = df.ReachingIn(loop);
  EXPECT_FALSE(Dataflow::TestBit(reach, 0));  // killed by inst 1
  EXPECT_TRUE(Dataflow::TestBit(reach, 1));
  EXPECT_TRUE(Dataflow::TestBit(reach, 2));   // loop back edge
}

// Structural sanity of the recovered CFGs across the whole suite: entries
// valid, every branch target inside the text, every indirection resolved,
// and the only unreachable code is the post-exit hang loop.
TEST(AsmCfg, WorkloadsRecoverCleanGraphs) {
  for (const auto& w : AllWorkloads()) {
    const AsmProgram p = Lift(BuildWorkload(w, kCampaignIters));
    const Cfg cfg = BuildCfg(p);
    EXPECT_NE(cfg.entry_block, kNoBlock) << w.name;
    EXPECT_TRUE(cfg.out_of_text.empty()) << w.name;
    EXPECT_TRUE(cfg.unresolved_indirect.empty()) << w.name;
    std::size_t unreachable_insts = 0;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
      if (!cfg.reachable[b])
        unreachable_insts += cfg.blocks[b].last - cfg.blocks[b].first + 1;
    EXPECT_EQ(unreachable_insts, 1u) << w.name << ": only `hang` expected";
    for (const auto& inst : p.insts)
      EXPECT_TRUE(inst.canonical)
          << w.name << " @ " << p.Locate(inst.addr);
    // At least one exit block must exist and dominatorily follow the entry.
    bool has_exit = false;
    for (const auto& b : cfg.blocks) has_exit |= b.is_exit;
    EXPECT_TRUE(has_exit) << w.name;
  }
}

}  // namespace
}  // namespace tfsim
