// Differential testing: randomly generated programs executed on the
// detailed pipeline must retire exactly the functional simulator's
// instruction stream, with the per-cycle invariant checker silent the whole
// way. Programs come from the shared fuzz generator (src/check/progfuzz.h);
// the shape-specific suites sweep corners no hand-written workload hits —
// store bursts with store-to-load forwarding, erratic branch patterns,
// mixed-width memory traffic over overlapping addresses, dense ALU chains.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/fuzz_harness.h"
#include "check/progfuzz.h"

namespace tfsim {
namespace {

using check::FuzzRunOptions;
using check::FuzzShape;

// Same per-seed scrambling as tools/fuzz, so a failing test names a case
// reproducible with `fuzz --shape <shape> --seed-base <param> --seeds 1`.
std::uint64_t ScrambleSeed(int param) {
  return static_cast<std::uint64_t>(param) * 0x9E3779B97F4A7C15ULL + 17;
}

void RunShapeCase(FuzzShape shape, int param) {
  const check::FuzzProgram prog =
      check::GenerateFuzzProgram(ScrambleSeed(param), shape);
  FuzzRunOptions opt;
  opt.cycles = 15000;
  opt.check_invariants = true;
  const check::FuzzCaseResult r = check::RunLockstep(prog.Source(), opt);
  ASSERT_TRUE(r.ok) << check::FuzzShapeName(shape) << " seed-base " << param
                    << ": " << r.failure << "\n"
                    << prog.Source();
  EXPECT_EQ(r.violations, 0u);
  EXPECT_GT(r.retired, 5000u);
}

class MixedDifferential : public ::testing::TestWithParam<int> {};
TEST_P(MixedDifferential, PipelineMatchesFunctional) {
  RunShapeCase(FuzzShape::kMixed, GetParam());
}
INSTANTIATE_TEST_SUITE_P(Seeds, MixedDifferential, ::testing::Range(0, 16));

// Store-heavy programs regress the store-queue/store-buffer forwarding
// paths (including the stale forward-shadow bugs the fuzzer originally
// found in the memory-order violation check).
class StoreHeavyDifferential : public ::testing::TestWithParam<int> {};
TEST_P(StoreHeavyDifferential, PipelineMatchesFunctional) {
  RunShapeCase(FuzzShape::kStoreHeavy, GetParam());
}
INSTANTIATE_TEST_SUITE_P(Seeds, StoreHeavyDifferential,
                         ::testing::Range(0, 10));

class BranchErraticDifferential : public ::testing::TestWithParam<int> {};
TEST_P(BranchErraticDifferential, PipelineMatchesFunctional) {
  RunShapeCase(FuzzShape::kBranchErratic, GetParam());
}
INSTANTIATE_TEST_SUITE_P(Seeds, BranchErraticDifferential,
                         ::testing::Range(0, 10));

class MemWidthsDifferential : public ::testing::TestWithParam<int> {};
TEST_P(MemWidthsDifferential, PipelineMatchesFunctional) {
  RunShapeCase(FuzzShape::kMemWidths, GetParam());
}
INSTANTIATE_TEST_SUITE_P(Seeds, MemWidthsDifferential,
                         ::testing::Range(0, 10));

// Direct regressions for the forwarding bugs found by the 200-seed sweep:
// these exact (shape, seed) pairs retired stale load values before the
// store-buffer-forward and SQ-slot-reuse shadow fixes in Core.
// The shape is held as an int so the struct has no padding: gtest prints the
// raw bytes of the case into the test name, and uninitialised padding made
// those names differ from build to build.
struct RegressionCase {
  int shape;
  int seed_base;
};

RegressionCase Regression(FuzzShape shape, int seed_base) {
  return {static_cast<int>(shape), seed_base};
}

class ForwardShadowRegression
    : public ::testing::TestWithParam<RegressionCase> {};
TEST_P(ForwardShadowRegression, NoStaleForwardedLoads) {
  RunShapeCase(static_cast<FuzzShape>(GetParam().shape),
               GetParam().seed_base);
}
INSTANTIATE_TEST_SUITE_P(
    FuzzFound, ForwardShadowRegression,
    ::testing::Values(Regression(FuzzShape::kStoreHeavy, 8),
                      Regression(FuzzShape::kStoreHeavy, 68),
                      Regression(FuzzShape::kStoreHeavy, 77),
                      Regression(FuzzShape::kStoreHeavy, 120),
                      Regression(FuzzShape::kMemWidths, 57),
                      Regression(FuzzShape::kMemWidths, 153),
                      Regression(FuzzShape::kMixed, 48)));

// The shrinker itself: block masks must compose into valid programs (every
// block is self-contained by construction).
TEST(FuzzProgram, DisabledBlocksStillAssembleAndPass) {
  const check::FuzzProgram prog =
      check::GenerateFuzzProgram(ScrambleSeed(3), FuzzShape::kMixed);
  ASSERT_GT(prog.blocks.size(), 2u);
  std::vector<bool> enabled(prog.blocks.size(), true);
  enabled[0] = false;
  enabled[prog.blocks.size() / 2] = false;
  FuzzRunOptions opt;
  opt.cycles = 6000;
  const check::FuzzCaseResult r =
      check::RunLockstep(prog.Source(enabled), opt);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.retired, 0u);
}

}  // namespace
}  // namespace tfsim
