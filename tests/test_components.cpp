// Unit tests for individual pipeline components: branch prediction, caches,
// rename, LSQ, ROB, scheduler.
#include <gtest/gtest.h>

#include <vector>

#include "arch/memory.h"
#include "state/state_registry.h"
#include "uarch/bpred.h"
#include "uarch/dcache.h"
#include "uarch/icache.h"
#include "uarch/lsq.h"
#include "uarch/rename.h"
#include "uarch/rob.h"
#include "uarch/scheduler.h"
#include "uarch/uop.h"

namespace tfsim {
namespace {

CoreConfig Cfg() { return CoreConfig{}; }

// --- branch prediction -------------------------------------------------------

TEST(Bpred, LearnsAlwaysTakenBranch) {
  StateRegistry reg;
  Bpred bp(reg, Cfg());
  const DecodedInst d = Decode(EncodeB(Op::kBne, 1, 16));
  const std::uint64_t pc = 0x2000;
  for (int i = 0; i < 8; ++i) bp.Train(pc, d, true, pc + 4 + 64);
  const BranchPrediction p = bp.Predict(pc, d);
  EXPECT_TRUE(p.taken);
  EXPECT_EQ(p.target, pc + 4 + 64);
}

TEST(Bpred, LearnsNotTaken) {
  StateRegistry reg;
  Bpred bp(reg, Cfg());
  const DecodedInst d = Decode(EncodeB(Op::kBeq, 1, 8));
  for (int i = 0; i < 8; ++i) bp.Train(0x3000, d, false, 0x3004);
  EXPECT_FALSE(bp.Predict(0x3000, d).taken);
}

TEST(Bpred, UnconditionalBranchesAlwaysTaken) {
  StateRegistry reg;
  Bpred bp(reg, Cfg());
  const DecodedInst d = Decode(EncodeB(Op::kBr, 31, 10));
  const BranchPrediction p = bp.Predict(0x1000, d);
  EXPECT_TRUE(p.taken);
  EXPECT_EQ(p.target, 0x1000u + 4 + 40);
}

TEST(Bpred, RasPairsCallsWithReturns) {
  StateRegistry reg;
  Bpred bp(reg, Cfg());
  const DecodedInst bsr = Decode(EncodeB(Op::kBsr, 26, 100));
  const DecodedInst ret = Decode(EncodeJ(Op::kRet, 31, 26));
  bp.Predict(0x1000, bsr);  // pushes 0x1004
  bp.Predict(0x5000, bsr);  // pushes 0x5004
  EXPECT_EQ(bp.Predict(0x6000, ret).target, 0x5004u);
  EXPECT_EQ(bp.Predict(0x7000, ret).target, 0x1004u);
}

TEST(Bpred, RasPointerRecovery) {
  StateRegistry reg;
  Bpred bp(reg, Cfg());
  const DecodedInst bsr = Decode(EncodeB(Op::kBsr, 26, 100));
  const DecodedInst ret = Decode(EncodeJ(Op::kRet, 31, 26));
  bp.Predict(0x1000, bsr);
  const std::uint64_t ckpt = bp.RasPtr();
  bp.Predict(0x2000, bsr);  // wrong-path push
  bp.SetRasPtr(ckpt);       // recovery
  EXPECT_EQ(bp.Predict(0x3000, ret).target, 0x1004u);
}

TEST(Bpred, BtbLearnsIndirectTargets) {
  StateRegistry reg;
  Bpred bp(reg, Cfg());
  const DecodedInst jmp = Decode(EncodeJ(Op::kJmp, 31, 5));
  EXPECT_EQ(bp.Predict(0x4000, jmp).target, 0x4004u);  // cold: fall-through
  bp.Train(0x4000, jmp, true, 0x9000);
  EXPECT_EQ(bp.Predict(0x4000, jmp).target, 0x9000u);
}

// --- caches -------------------------------------------------------------------

TEST(ICache, MissThenFillAfterEightCycles) {
  StateRegistry reg;
  Memory mem;
  mem.Write(0x1000, 0xAABBCCDD, 4);
  ICache ic(reg, Cfg());
  std::uint32_t w = 0;
  EXPECT_FALSE(ic.Read(0x1000, mem, w));
  EXPECT_TRUE(ic.MissPending());
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(ic.Read(0x1000, mem, w));  // still missing
    ic.Tick(mem);
  }
  EXPECT_TRUE(ic.Read(0x1000, mem, w));
  EXPECT_EQ(w, 0xAABBCCDDu);
}

TEST(ICache, ReadsBothHalvesOfAQword) {
  StateRegistry reg;
  Memory mem;
  mem.Write(0x2000, 0x1111111122222222ull, 8);
  ICache ic(reg, Cfg());
  std::uint32_t w = 0;
  ic.Read(0x2000, mem, w);
  for (int i = 0; i < 9; ++i) ic.Tick(mem);
  ic.Read(0x2000, mem, w);
  EXPECT_EQ(w, 0x22222222u);
  ic.Read(0x2004, mem, w);
  EXPECT_EQ(w, 0x11111111u);
}

TEST(DCache, HitAfterFill) {
  StateRegistry reg;
  Memory mem;
  mem.Write(0x8000, 0x1234, 8);
  DCache dc(reg, Cfg());
  std::uint64_t v = 0;
  EXPECT_EQ(dc.AccessLoad(0x8000, 8, mem, 3, v), DCache::LoadResult::kMiss);
  for (int i = 0; i < 8; ++i) dc.Tick(mem);
  EXPECT_TRUE(dc.FillReady(3));
  dc.ReleaseFill(3);
  dc.Tick(mem);
  EXPECT_EQ(dc.AccessLoad(0x8000, 8, mem, 3, v), DCache::LoadResult::kHit);
  EXPECT_EQ(v, 0x1234u);
}

TEST(DCache, BankConflictForcesRetry) {
  StateRegistry reg;
  Memory mem;
  DCache dc(reg, Cfg());
  dc.Tick(mem);
  std::uint64_t v;
  // Prime the cache so both accesses would hit.
  dc.AccessLoad(0x100, 8, mem, 0, v);
  for (int i = 0; i < 9; ++i) dc.Tick(mem);
  EXPECT_EQ(dc.AccessLoad(0x100, 8, mem, 0, v), DCache::LoadResult::kHit);
  // Same bank (same addr bits [5:3]) in the same cycle: conflict.
  EXPECT_EQ(dc.AccessLoad(0x100, 8, mem, 1, v), DCache::LoadResult::kRetry);
  dc.Tick(mem);  // next cycle the bank frees up
  EXPECT_EQ(dc.AccessLoad(0x100, 8, mem, 1, v), DCache::LoadResult::kHit);
}

TEST(DCache, WriteThroughUpdatesMemoryAndLine) {
  StateRegistry reg;
  Memory mem;
  mem.Write(0x300, 0xAA, 8);
  DCache dc(reg, Cfg());
  std::uint64_t v;
  dc.AccessLoad(0x300, 8, mem, 0, v);
  for (int i = 0; i < 9; ++i) dc.Tick(mem);
  dc.WriteThrough(0x300, 0xBB, 8, mem);
  EXPECT_EQ(mem.Read(0x300, 8), 0xBBu);
  dc.Tick(mem);
  EXPECT_EQ(dc.AccessLoad(0x300, 8, mem, 0, v), DCache::LoadResult::kHit);
  EXPECT_EQ(v, 0xBBu);  // the cached copy was updated too
}

TEST(DCache, MshrsExhaust) {
  StateRegistry reg;
  Memory mem;
  DCache dc(reg, Cfg());
  dc.Tick(mem);
  std::uint64_t v;
  const CoreConfig cfg = Cfg();
  for (int i = 0; i < cfg.mshrs; ++i) {
    // distinct banks+lines to dodge bank conflicts: stride by line*banks
    dc.Tick(mem);
    EXPECT_EQ(dc.AccessLoad(0x10000 + i * 256, 8, mem, i & 15, v),
              DCache::LoadResult::kMiss) << i;
  }
  dc.Tick(mem);
  EXPECT_EQ(dc.MshrsInUse(), cfg.mshrs);
  EXPECT_EQ(dc.AccessLoad(0x90000, 8, mem, 0, v), DCache::LoadResult::kRetry);
}

// --- rename -------------------------------------------------------------------

TEST(Rename, ResetIdentityMapping) {
  StateRegistry reg;
  Rename rn(reg, Cfg());
  rn.Reset();
  for (std::uint64_t a = 0; a < kNumArchRegs; ++a)
    EXPECT_EQ(rn.LookupSpec(a).val, a);
  EXPECT_EQ(rn.SpecFreeCount(), 48u);
}

TEST(Rename, AllocateMapFreeCycle) {
  StateRegistry reg;
  Rename rn(reg, Cfg());
  rn.Reset();
  const RPtr p = rn.PopFree();
  EXPECT_EQ(p.val, 32u);  // first free physical register
  const RPtr old = rn.RenameDst(5, p);
  EXPECT_EQ(old.val, 5u);
  EXPECT_EQ(rn.LookupSpec(5).val, 32u);
  rn.PushFree(old);
  EXPECT_EQ(rn.SpecFreeCount(), 48u);
}

TEST(Rename, WalkBackUndo) {
  StateRegistry reg;
  Rename rn(reg, Cfg());
  rn.Reset();
  const RPtr p1 = rn.PopFree();
  const RPtr o1 = rn.RenameDst(3, p1);
  const RPtr p2 = rn.PopFree();
  const RPtr o2 = rn.RenameDst(3, p2);
  // Undo youngest-first.
  rn.UndoRename(3, o2);
  rn.UnpopFree(p2);
  rn.UndoRename(3, o1);
  rn.UnpopFree(p1);
  EXPECT_EQ(rn.LookupSpec(3).val, 3u);
  EXPECT_EQ(rn.SpecFreeCount(), 48u);
  EXPECT_EQ(rn.PopFree().val, 32u);  // order restored
}

TEST(Rename, PopOnEmptyIsDefined) {
  StateRegistry reg;
  Rename rn(reg, Cfg());
  rn.Reset();
  for (int i = 0; i < 48; ++i) rn.PopFree();
  EXPECT_EQ(rn.SpecFreeCount(), 0u);
  EXPECT_EQ(rn.PopFree().val, 0u);  // defined under corruption
}

TEST(Rename, FlushCopiesArchState) {
  StateRegistry reg;
  Rename rn(reg, Cfg());
  rn.Reset();
  const RPtr p = rn.PopFree();
  rn.RenameDst(7, p);
  rn.CopyArchToSpec();
  EXPECT_EQ(rn.LookupSpec(7).val, 7u);  // speculative rename rolled back
  EXPECT_EQ(rn.SpecFreeCount(), 48u);
}

TEST(Rename, EccTravelsAndRepairs) {
  CoreConfig cfg;
  cfg.protect.regptr_ecc = true;
  StateRegistry reg;
  Rename rn(reg, cfg);
  rn.Reset();
  const RPtr p = rn.LookupSpec(9);
  EXPECT_EQ(p.ecc, EncodeRegptrEcc(9));
  // Corrupt a pointer bit directly, then read through the checker.
  const RPtr corrupted{p.val ^ 0x4, p.ecc};
  const RPtr fixed = CheckPtr(corrupted, true);
  EXPECT_EQ(fixed.val, 9u);
}

// --- LSQ ----------------------------------------------------------------------

TEST(Lsq, RingAllocationOrder) {
  StateRegistry reg;
  Lsq lsq(reg, Cfg());
  const std::uint64_t a = lsq.AllocLq();
  const std::uint64_t b = lsq.AllocLq();
  EXPECT_EQ(b, (a + 1) % lsq.lq_entries());
  EXPECT_EQ(lsq.LqAge(a), 0u);
  EXPECT_EQ(lsq.LqAge(b), 1u);
  EXPECT_EQ(lsq.PopLqTail(), b);  // squash removes the youngest
  lsq.PopLqHead();                // retire removes the oldest
  EXPECT_EQ(lsq.lq_count.Get(0), 0u);
}

TEST(Lsq, StoreBufferFifo) {
  StateRegistry reg;
  Lsq lsq(reg, Cfg());
  lsq.SbPush(0x10, 1, EncodeSizeCode(8));
  lsq.SbPush(0x20, 2, EncodeSizeCode(4));
  std::uint64_t addr, data;
  int size;
  ASSERT_TRUE(lsq.SbPop(addr, data, size));
  EXPECT_EQ(addr, 0x10u);
  EXPECT_EQ(size, 8);
  ASSERT_TRUE(lsq.SbPop(addr, data, size));
  EXPECT_EQ(data, 2u);
  EXPECT_EQ(size, 4);
  EXPECT_FALSE(lsq.SbPop(addr, data, size));
}

TEST(Lsq, StoreBufferSurvivesQueueFlush) {
  StateRegistry reg;
  Lsq lsq(reg, Cfg());
  lsq.AllocLq();
  lsq.AllocSq();
  lsq.SbPush(0x30, 3, EncodeSizeCode(1));
  lsq.ClearQueues();
  EXPECT_EQ(lsq.lq_count.Get(0), 0u);
  EXPECT_EQ(lsq.sq_count.Get(0), 0u);
  EXPECT_FALSE(lsq.SbEmpty());  // committed stores are not flushable
}

TEST(Lsq, SizeCodesAreTotal) {
  EXPECT_EQ(DecodeSizeCode(EncodeSizeCode(1)), 1);
  EXPECT_EQ(DecodeSizeCode(EncodeSizeCode(4)), 4);
  EXPECT_EQ(DecodeSizeCode(EncodeSizeCode(8)), 8);
  EXPECT_EQ(DecodeSizeCode(3), 8);  // corrupted code decodes to something
}

// --- ROB ----------------------------------------------------------------------

TEST(Rob, CircularAllocationAndAges) {
  StateRegistry reg;
  Rob rob(reg, Cfg());
  const std::uint64_t a = rob.Allocate();
  const std::uint64_t b = rob.Allocate();
  EXPECT_EQ(rob.Count(), 2u);
  EXPECT_EQ(rob.Head(), a);
  EXPECT_TRUE(rob.Younger(b, a));
  EXPECT_FALSE(rob.Younger(a, b));
  EXPECT_TRUE(rob.Contains(a));
  rob.PopHead();
  EXPECT_FALSE(rob.Contains(a));
  EXPECT_EQ(rob.PopTail(), b);
  EXPECT_TRUE(rob.Empty());
}

TEST(Rob, FullAfterCapacityAllocations) {
  StateRegistry reg;
  Rob rob(reg, Cfg());
  for (int i = 0; i < 64; ++i) rob.Allocate();
  EXPECT_TRUE(rob.Full());
}

TEST(Rob, WrapAroundAgeOrder) {
  StateRegistry reg;
  Rob rob(reg, Cfg());
  for (int i = 0; i < 60; ++i) {
    rob.Allocate();
    rob.PopHead();
  }
  const std::uint64_t old_tag = rob.Allocate();  // near the wrap point
  for (int i = 0; i < 10; ++i) rob.Allocate();
  const std::uint64_t young = rob.Allocate();
  EXPECT_TRUE(rob.Younger(young, old_tag));
}

// --- scheduler ------------------------------------------------------------------

std::vector<std::size_t> ReadyEntries(const Scheduler& s) {
  std::vector<std::size_t> out;
  s.ForEachReady([&](std::size_t i) { out.push_back(i); });
  return out;
}

TEST(Scheduler, RoundRobinAllocation) {
  StateRegistry reg;
  Scheduler s(reg, Cfg());
  const auto a = s.FreeEntry();
  ASSERT_TRUE(a);
  s.valid.Set(*a, 1);
  s.NoteAllocated(*a);
  const auto b = s.FreeEntry();
  ASSERT_TRUE(b);
  EXPECT_EQ(*b, (*a + 1) % s.entries());
}

TEST(Scheduler, WakeupSetsMatchingSources) {
  StateRegistry reg;
  Scheduler s(reg, Cfg());
  s.valid.Set(0, 1);
  s.state.Set(0, Scheduler::kWaiting);
  s.src1p.Set(0, 40);
  s.src2p.Set(0, 41);
  s.src2_rdy.Set(0, 1);
  EXPECT_TRUE(ReadyEntries(s).empty());
  s.Wakeup(40);
  EXPECT_EQ(ReadyEntries(s), std::vector<std::size_t>{0});
}

TEST(Scheduler, KillWakeupRevertsIssuedConsumers) {
  StateRegistry reg;
  Scheduler s(reg, Cfg());
  s.valid.Set(3, 1);
  s.state.Set(3, Scheduler::kIssued);
  s.src1p.Set(3, 50);
  s.src1_rdy.Set(3, 1);
  s.src2_rdy.Set(3, 1);
  s.KillWakeup(50, /*loader_entry=*/7);
  EXPECT_EQ(s.state.Get(3), Scheduler::kWaiting);
  EXPECT_FALSE(s.src1_rdy.GetBit(3));
}

TEST(Scheduler, WaitStoreGatesIssue) {
  StateRegistry reg;
  Scheduler s(reg, Cfg());
  s.valid.Set(1, 1);
  s.state.Set(1, Scheduler::kWaiting);
  s.src1_rdy.Set(1, 1);
  s.src2_rdy.Set(1, 1);
  s.wait_store.Set(1, 1);
  s.wait_tag.Set(1, 9);
  EXPECT_TRUE(ReadyEntries(s).empty());
  s.StoreExecuted(9);
  EXPECT_EQ(ReadyEntries(s), std::vector<std::size_t>{1});
}

TEST(Scheduler, FullWhenAllValid) {
  StateRegistry reg;
  Scheduler s(reg, Cfg());
  for (std::uint64_t i = 0; i < s.entries(); ++i) s.valid.Set(i, 1);
  EXPECT_FALSE(s.FreeEntry().has_value());
  EXPECT_EQ(s.Occupancy(), 32);
}

}  // namespace
}  // namespace tfsim
