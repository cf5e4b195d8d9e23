// Memory-system integration tests observed through the live core:
// store-to-load forwarding, store-buffer forwarding, miss/replay behaviour,
// and load/store ordering — all validated by functional co-simulation plus
// direct counter checks.
#include <gtest/gtest.h>

#include "check/lockstep.h"
#include "isa/assemble.h"

namespace tfsim {
namespace {

// Runs prog on the pipeline co-simulated against the functional reference;
// returns the final core stats.
CoreStats CoSimStats(const Program& prog, int cycles) {
  check::Lockstep ls(CoreConfig{}, prog, check::kDeadlockCycles);
  EXPECT_TRUE(ls.Run(static_cast<std::uint64_t>(cycles))) << ls.Failure();
  return ls.core().stats();
}

TEST(CoreMemory, StoreToLoadForwardingIsExact) {
  // Store immediately followed by a same-address load, repeatedly: the value
  // must forward from the SQ (or SB) and always be correct.
  const Program prog = Assemble(R"(
      _start:
      li r1, 2000
      la r2, buf
      li r3, 0
      loop:
      andqi r1, 7, r4
      sllqi r4, 3, r4
      addq r2, r4, r4
      stq r1, 0(r4)
      ldq r5, 0(r4)        ; must see the just-stored value
      addq r3, r5, r3
      subqi r1, 1, r1
      bgt r1, loop
      hang: br hang
      .data
      buf: .space 64
  )");
  const CoreStats st = CoSimStats(prog, 40000);
  EXPECT_GT(st.retired, 14000u);
}

TEST(CoreMemory, PartialOverlapStoresStallNotCorrupt) {
  // Byte stores under a quadword load: no exact-match forward is possible,
  // so the load must wait for drain — and always read the right bytes.
  const Program prog = Assemble(R"(
      _start:
      li r1, 1500
      la r2, buf
      loop:
      stb r1, 3(r2)        ; partial overlap with the load below
      ldq r5, 0(r2)
      addq r5, r1, r6
      stq r6, 8(r2)
      subqi r1, 1, r1
      bgt r1, loop
      hang: br hang
      .data
      .align 8
      buf: .space 32
  )");
  const CoreStats st = CoSimStats(prog, 60000);
  EXPECT_GT(st.retired, 8000u);
}

TEST(CoreMemory, CacheMissesCauseReplays) {
  // A pointer chase over 128 KB misses constantly; consumers issued under
  // the speculative hit assumption must replay.
  const Program prog = Assemble(R"(
      _start:
      li r1, 3000
      la r2, big
      li r3, 0
      li r6, 0
      loop:
      sllqi r6, 3, r4
      addq r2, r4, r4
      ldq r5, 0(r4)        ; usually a miss
      addq r3, r5, r3      ; dependent: replays on every miss
      addqi r6, 515, r6
      sllqi r6, 50, r7
      srlqi r7, 50, r6     ; r6 mod 16384
      subqi r1, 1, r1
      bgt r1, loop
      hang: br hang
      .data
      .align 8
      big: .space 131072
  )");
  const CoreStats st = CoSimStats(prog, 120000);
  EXPECT_GT(st.dcache_misses, 1000u);
  EXPECT_GT(st.replays, 500u);
}

TEST(CoreMemory, UnalignedAccessRaisesAtRetirement) {
  const Program prog = Assemble(R"(
      _start:
      li r1, 5
      ldq r2, 0(r1)
      hang: br hang
  )");
  Core core(CoreConfig{}, prog);
  for (int c = 0; c < 300 && core.halted_exception() == Exception::kNone; ++c)
    core.Cycle();
  EXPECT_EQ(core.halted_exception(), Exception::kUnaligned);
}

TEST(CoreMemory, WrongPathLoadsDoNotCorruptState) {
  // A hard-to-predict branch guards a load from a "poison" region; the
  // wrong-path load may execute speculatively but must never retire.
  const Program prog = Assemble(R"(
      _start:
      li r1, 2000
      li r2, 99991
      la r3, safe
      la r4, poison
      li r5, 0
      loop:
      li r6, 1103515245
      mulq r2, r6, r2
      addqi r2, 12345, r2
      srlqi r2, 17, r6
      andqi r6, 1, r6
      beq r6, skip         ; data-dependent: mispredicts often
      ldq r7, 0(r3)
      addq r5, r7, r5
      br next
      skip:
      ldq r7, 8(r3)
      xorq r5, r7, r5
      next:
      subqi r1, 1, r1
      bgt r1, loop
      hang: br hang
      .data
      .align 8
      safe: .word 17, 29
      poison: .word 0xDEAD
  )");
  const CoreStats st = CoSimStats(prog, 80000);
  EXPECT_GT(st.mispredicts, 300u);
}

TEST(CoreMemory, StoreBufferDrainsInOrder) {
  // A burst of stores larger than the 8-entry store buffer must still all
  // land, in order, with retirement stalling as needed.
  const Program prog = Assemble(R"(
      _start:
      li r1, 200
      la r2, buf
      outer:
      li r3, 16
      mov r2, r4
      burst:
      stq r3, 0(r4)
      addqi r4, 8, r4
      subqi r3, 1, r3
      bgt r3, burst
      ldq r5, 64(r2)
      subqi r1, 1, r1
      bgt r1, outer
      hang: br hang
      .data
      .align 8
      buf: .space 256
  )");
  const CoreStats st = CoSimStats(prog, 60000);
  EXPECT_GT(st.retired, 10000u);
}

TEST(CoreMemory, IcacheMissesStallFetchOnly) {
  // A loop bouncing between two far-apart code regions thrashes the 8 KB
  // I-cache; execution stays correct.
  const Program prog = Assemble(R"(
      _start:
      li r1, 400
      li r3, 0
      loop:
      bsr ra, far
      subqi r1, 1, r1
      bgt r1, loop
      hang: br hang
      .org 0x3000
      far:
      addqi r3, 7, r3
      ret
  )");
  const CoreStats st = CoSimStats(prog, 40000);
  EXPECT_GT(st.retired, 1500u);
}

}  // namespace
}  // namespace tfsim
