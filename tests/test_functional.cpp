#include <gtest/gtest.h>

#include <ostream>

#include "arch/functional_sim.h"
#include "arch/syscall.h"
#include "isa/assemble.h"

namespace tfsim {
namespace {

FunctionalSim RunProg(const std::string& src, std::uint64_t max = 100000) {
  FunctionalSim sim(Assemble(src));
  sim.Run(max);
  return sim;
}

TEST(Functional, StraightLineArithmetic) {
  auto sim = RunProg(R"(
      addqi zero, 6, r1
      addqi zero, 7, r2
      mulq r1, r2, r3
      hang: br hang
  )", 4);
  EXPECT_EQ(sim.state().Reg(3), 42u);
}

TEST(Functional, R31ReadsZeroAndDiscardsWrites) {
  auto sim = RunProg(R"(
      addqi zero, 99, r31
      addq r31, r31, r1
      hang: br hang
  )", 3);
  EXPECT_EQ(sim.state().Reg(1), 0u);
}

TEST(Functional, LoopComputesSum) {
  auto sim = RunProg(R"(
      li r1, 100         ; n
      li r2, 0           ; sum
      loop:
      addq r2, r1, r2
      subqi r1, 1, r1
      bgt r1, loop
      hang: br hang
  )", 1000);
  EXPECT_EQ(sim.state().Reg(2), 5050u);
}

TEST(Functional, CallAndReturn) {
  auto sim = RunProg(R"(
      _start:
      bsr ra, func
      addqi r1, 1, r1
      hang: br hang
      func:
      li r1, 41
      ret
  )", 20);
  EXPECT_EQ(sim.state().Reg(1), 42u);
}

TEST(Functional, IndirectJump) {
  auto sim = RunProg(R"(
      la r4, target
      jmp zero, r4
      li r1, 1
      target: li r2, 2
      hang: br hang
  )", 10);
  EXPECT_EQ(sim.state().Reg(1), 0u);
  EXPECT_EQ(sim.state().Reg(2), 2u);
}

TEST(Functional, LoadStoreRoundTrip) {
  auto sim = RunProg(R"(
      la r1, buf
      li r2, 0x12345678
      stq r2, 0(r1)
      ldq r3, 0(r1)
      stl r2, 8(r1)
      ldl r4, 8(r1)
      stb r2, 16(r1)
      ldbu r5, 16(r1)
      hang: br hang
      .data
      buf: .space 32
  )", 20);
  EXPECT_EQ(sim.state().Reg(3), 0x12345678u);
  EXPECT_EQ(sim.state().Reg(4), 0x12345678u);
  EXPECT_EQ(sim.state().Reg(5), 0x78u);
}

TEST(Functional, LdlSignExtends) {
  auto sim = RunProg(R"(
      la r1, buf
      ldl r2, 0(r1)
      hang: br hang
      .data
      buf: .long 0x80000001
  )", 10);
  EXPECT_EQ(sim.state().Reg(2), 0xFFFFFFFF80000001ull);
}

TEST(Functional, ExitSyscall) {
  auto sim = RunProg(R"(
      li a0, 5
      li v0, 1
      syscall
  )", 10);
  EXPECT_TRUE(sim.state().exited);
  EXPECT_EQ(sim.state().exit_code, 5u);
  EXPECT_FALSE(sim.Running());
}

TEST(Functional, WriteSyscallCollectsOutput) {
  auto sim = RunProg(R"(
      la a0, msg
      li a1, 5
      li v0, 2
      syscall
      li a0, 0
      li v0, 1
      syscall
      .data
      msg: .asciiz "hello"
  )", 20);
  const std::string out(sim.state().output.begin(), sim.state().output.end());
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(sim.state().Reg(0), 0u);  // exit overwrote r0 with its result
}

TEST(Functional, UnknownSyscallReturnsError) {
  auto sim = RunProg("li v0, 999\n syscall\n hang: br hang\n", 5);
  EXPECT_EQ(sim.state().Reg(0), static_cast<std::uint64_t>(-1));
}

TEST(Functional, WriteSyscallClampsHugeLengths) {
  auto sim = RunProg(R"(
      la a0, msg
      li a1, 0x7FFF0000
      li v0, 2
      syscall
      hang: br hang
      .data
      msg: .byte 1
  )", 10);
  EXPECT_EQ(sim.state().output.size(), kMaxWriteBytes);
}

struct ExcCase {
  const char* name;
  const char* src;
  Exception want;
};

// gtest would otherwise print the raw bytes of the case, source pointers
// included, so the registered test names would change with every load
// address.
void PrintTo(const ExcCase& c, std::ostream* os) { *os << c.name; }

class ExceptionTest : public ::testing::TestWithParam<ExcCase> {};

TEST_P(ExceptionTest, Raises) {
  auto sim = RunProg(GetParam().src, 20);
  EXPECT_EQ(sim.pending_exception(), GetParam().want);
  EXPECT_FALSE(sim.Running());
}

INSTANTIATE_TEST_SUITE_P(
    AllExceptions, ExceptionTest,
    ::testing::Values(
        ExcCase{"illegal", ".long 0\n", Exception::kIllegalOpcode},
        ExcCase{"div0", "li r1, 3\n divq r1, zero, r2\n",
                Exception::kDivZero},
        ExcCase{"overflow",
                "li r1, 1\n sllqi r1, 62, r1\n addv r1, r1, r2\n",
                Exception::kOverflow},
        ExcCase{"unaligned_load", "li r1, 3\n ldq r2, 0(r1)\n",
                Exception::kUnaligned},
        ExcCase{"unaligned_store", "li r1, 2\n stl r2, 0(r1)\n",
                Exception::kUnaligned}),
    [](const auto& p) { return std::string(p.param.name); });

TEST(Functional, TlbLearningThenChecking) {
  const Program p = Assemble(R"(
      la r1, buf
      ldq r2, 0(r1)
      li r3, 0x200000
      ldq r4, 0(r3)
      hang: br hang
      .data
      buf: .word 1
  )");
  // Learning mode permits everything.
  FunctionalSim learn(p);
  learn.Run(10);
  EXPECT_EQ(learn.pending_exception(), Exception::kNone);

  // Checking mode with only the learned pages faults on the wild access...
  FunctionalSim strict(p);
  strict.tlb().LookupData(p.symbols.at("buf"));
  strict.tlb().LookupInsn(p.entry);
  strict.tlb().LookupInsn(p.entry + 60);
  strict.tlb().SetLearning(false);
  strict.Run(10);
  EXPECT_EQ(strict.pending_exception(), Exception::kDTlbMiss);
}

TEST(Functional, RetireEventsRecordWrites) {
  FunctionalSim sim(Assemble("addqi zero, 9, r4\nhang: br hang\n"));
  const RetireEvent e = sim.Step();
  EXPECT_EQ(e.dst, 4);
  EXPECT_EQ(e.value, 9u);
  EXPECT_EQ(e.exc, Exception::kNone);
}

TEST(Functional, RetireEventsRecordStores) {
  FunctionalSim sim(Assemble(R"(
      la r1, buf
      li r2, 7
      stq r2, 8(r1)
      .data
      buf: .space 16
  )"));
  sim.Run(4);
  RetireEvent e = sim.Step();
  EXPECT_TRUE(e.is_store);
  EXPECT_EQ(e.store_value, 7u);
  EXPECT_EQ(e.store_size, 8);
}

TEST(Functional, ArchStateHashChangesWithState) {
  FunctionalSim a(Assemble("addqi zero, 1, r1\nhang: br hang\n"));
  FunctionalSim b(Assemble("addqi zero, 2, r1\nhang: br hang\n"));
  a.Step();
  b.Step();
  EXPECT_NE(a.state().Hash(), b.state().Hash());
}

}  // namespace
}  // namespace tfsim
