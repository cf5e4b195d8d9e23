#include <gtest/gtest.h>

#include <vector>

#include "state/state_registry.h"
#include "util/rng.h"

namespace tfsim {
namespace {

TEST(StateRegistry, SetMasksToWidth) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kCtrl, Storage::kLatch, 4, 7);
  f.Set(0, 0xFFFF);
  EXPECT_EQ(f.Get(0), 0x7Fu);
}

TEST(StateRegistry, SixtyFourBitFields) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kData, Storage::kRam, 2, 64);
  f.Set(1, ~0ULL);
  EXPECT_EQ(f.Get(1), ~0ULL);
}

TEST(StateRegistry, RejectsBadWidths) {
  StateRegistry reg;
  EXPECT_THROW(reg.Allocate("z", StateCat::kCtrl, Storage::kLatch, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(reg.Allocate("z", StateCat::kCtrl, Storage::kLatch, 1, 65),
               std::invalid_argument);
}

// Every write path (Set, FlipBit, OverwriteWord, Restore) keeps the
// incremental hash equal to a from-scratch recomputation. The final Hash()
// is pinned: campaign results, cache entries and fast-path verdicts all
// compare these hashes, so a changed contribution function must fail here.
TEST(StateRegistry, IncrementalHashMatchesRecompute) {
  StateRegistry reg;
  StateField a = reg.Allocate("a", StateCat::kCtrl, Storage::kLatch, 16, 13);
  StateField b = reg.Allocate("b", StateCat::kData, Storage::kRam, 8, 64);
  StateField c = reg.Allocate("c", StateCat::kPc, Storage::kBackground, 4, 62);
  const std::uint64_t bits = reg.InjectableBits(/*include_ram=*/true);
  std::vector<std::uint64_t> snap = reg.Snapshot();
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    a.Set(rng.NextBelow(16), rng.Next());
    b.Set(rng.NextBelow(8), rng.Next());
    c.Set(rng.NextBelow(4), rng.NextBelow(3) == 0 ? 0 : rng.Next());
    switch (rng.NextBelow(4)) {
      case 0:
        reg.FlipBit(reg.LocateBit(rng.NextBelow(bits), true));
        break;
      case 1: {
        const std::size_t w = rng.NextBelow(reg.WordCount());
        reg.OverwriteWord(w, snap[w]);
        break;
      }
      case 2:
        if (rng.NextBelow(8) == 0) reg.Restore(snap);
        break;
      default:
        if (rng.NextBelow(8) == 0) snap = reg.Snapshot();
        break;
    }
    if (i % 500 == 0) {
      EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
    }
  }
  EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
  EXPECT_EQ(reg.Hash(), 0x85464d64a1116afaULL);
}

// Fields allocated after earlier fields were written (the contribution cache
// then covers only part of the store) still hash consistently.
TEST(StateRegistry, AllocateAfterWritesKeepsHashConsistent) {
  StateRegistry reg;
  StateField a = reg.Allocate("a", StateCat::kCtrl, Storage::kLatch, 4, 13);
  a.Set(1, 0x123);
  StateField b = reg.Allocate("b", StateCat::kData, Storage::kRam, 4, 64);
  b.Set(3, ~0ULL);
  a.Set(2, 0x45);
  StateField c = reg.Allocate("c", StateCat::kPc, Storage::kLatch, 2, 62);
  const std::vector<std::uint64_t> snap = reg.Snapshot();
  c.Set(0, 77);
  a.Set(1, 0);
  EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
  reg.Restore(snap);
  EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
}

TEST(StateRegistry, HashReturnsAfterUndo) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kPc, Storage::kLatch, 4, 62);
  const std::uint64_t h0 = reg.Hash();
  f.Set(2, 12345);
  EXPECT_NE(reg.Hash(), h0);
  f.Set(2, 0);
  EXPECT_EQ(reg.Hash(), h0);
}

TEST(StateRegistry, InjectableBitCountsRespectStorage) {
  StateRegistry reg;
  reg.Allocate("lat", StateCat::kCtrl, Storage::kLatch, 10, 3);   // 30 bits
  reg.Allocate("ram", StateCat::kData, Storage::kRam, 5, 8);      // 40 bits
  reg.Allocate("bg", StateCat::kData, Storage::kBackground, 9, 9);
  EXPECT_EQ(reg.InjectableBits(false), 30u);
  EXPECT_EQ(reg.InjectableBits(true), 70u);
}

TEST(StateRegistry, LocateBitWalksTheWholeSpace) {
  StateRegistry reg;
  reg.Allocate("a", StateCat::kCtrl, Storage::kLatch, 2, 3);
  reg.Allocate("bg", StateCat::kData, Storage::kBackground, 4, 64);
  reg.Allocate("b", StateCat::kAddr, Storage::kRam, 1, 4);
  // 6 latch bits then 4 RAM bits; background skipped entirely.
  for (std::uint64_t i = 0; i < 6; ++i) {
    const BitLocation loc = reg.LocateBit(i, true);
    EXPECT_EQ(loc.name, "a");
    EXPECT_EQ(loc.element, i / 3);
    EXPECT_EQ(loc.bit, i % 3);
  }
  for (std::uint64_t i = 6; i < 10; ++i)
    EXPECT_EQ(reg.LocateBit(i, true).name, "b");
  EXPECT_THROW(reg.LocateBit(10, true), std::out_of_range);
  EXPECT_THROW(reg.LocateBit(6, false), std::out_of_range);
}

TEST(StateRegistry, FlipBitTogglesExactlyThatBit) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kInsn, Storage::kRam, 3, 32);
  f.Set(1, 0xF0F0F0F0);
  const BitLocation loc = reg.LocateBit(32 + 5, true);  // element 1, bit 5
  EXPECT_TRUE(reg.ReadBit(loc));  // bit 5 of 0xF0 is set
  reg.FlipBit(loc);
  EXPECT_FALSE(reg.ReadBit(loc));
  EXPECT_EQ(f.Get(1), 0xF0F0F0F0u ^ (1u << 5));
  EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
}

TEST(StateRegistry, DoubleFlipRestoresHash) {
  StateRegistry reg;
  reg.Allocate("f", StateCat::kValid, Storage::kLatch, 100, 1);
  Rng rng(2);
  const std::uint64_t h0 = reg.Hash();
  for (int i = 0; i < 100; ++i) {
    const BitLocation loc = reg.LocateBit(rng.NextBelow(100), false);
    reg.FlipBit(loc);
    reg.FlipBit(loc);
    EXPECT_EQ(reg.Hash(), h0);
  }
}

TEST(StateRegistry, SnapshotRestoreRoundTrip) {
  StateRegistry reg;
  StateField f = reg.Allocate("f", StateCat::kData, Storage::kRam, 32, 64);
  Rng rng(3);
  for (int i = 0; i < 32; ++i) f.Set(i, rng.Next());
  const auto snap = reg.Snapshot();
  const std::uint64_t h = reg.Hash();
  for (int i = 0; i < 32; ++i) f.Set(i, rng.Next());
  EXPECT_NE(reg.Hash(), h);
  reg.Restore(snap);
  EXPECT_EQ(reg.Hash(), h);
  EXPECT_EQ(reg.Hash(), reg.RecomputeHash());
}

TEST(StateRegistry, RestoreRejectsWrongSize) {
  StateRegistry reg;
  reg.Allocate("f", StateCat::kData, Storage::kRam, 4, 8);
  EXPECT_THROW(reg.Restore(std::vector<std::uint64_t>(3)),
               std::invalid_argument);
}

TEST(StateRegistry, InventoryByCategory) {
  StateRegistry reg;
  reg.Allocate("a", StateCat::kRegptr, Storage::kLatch, 10, 7);
  reg.Allocate("b", StateCat::kRegptr, Storage::kRam, 4, 7);
  reg.Allocate("c", StateCat::kData, Storage::kRam, 2, 64);
  const auto inv = reg.Inventory(StateCat::kRegptr);
  EXPECT_EQ(inv.latch_bits, 70u);
  EXPECT_EQ(inv.ram_bits, 28u);
  const auto total = reg.TotalInjectable();
  EXPECT_EQ(total.latch_bits, 70u);
  EXPECT_EQ(total.ram_bits, 28u + 128u);
}

TEST(StateRegistry, IdenticalAllocationOrderGivesIdenticalLayout) {
  auto build = [](StateRegistry& reg) {
    reg.Allocate("x", StateCat::kCtrl, Storage::kLatch, 7, 11);
    reg.Allocate("y", StateCat::kAddr, Storage::kRam, 3, 58);
  };
  StateRegistry a, b;
  build(a);
  build(b);
  StateField fa = a.Allocate("z", StateCat::kPc, Storage::kLatch, 1, 62);
  StateField fb = b.Allocate("z", StateCat::kPc, Storage::kLatch, 1, 62);
  fa.Set(0, 999);
  fb.Set(0, 999);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(StateCatName, AllNamed) {
  for (int c = 0; c < kNumStateCats; ++c)
    EXPECT_STRNE(StateCatName(static_cast<StateCat>(c)), "?");
}

}  // namespace
}  // namespace tfsim
