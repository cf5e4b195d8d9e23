// Differential fuzzing harness: runs a generated program on the detailed
// core in lockstep with the FunctionalSim oracle (check/lockstep.h), with
// the per-cycle invariant checker enabled, and greedily shrinks failing
// cases by disabling program blocks (see progfuzz.h). Used by `tfi fuzz`
// and by the differential test suites.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/progfuzz.h"
#include "uarch/config.h"

namespace tfsim::check {

struct FuzzRunOptions {
  std::uint64_t cycles = 15000;
  // Core geometry under test (differential fuzzing sweeps shapes, not just
  // programs). The invariant checker is on unless the caller turns
  // CoreConfig::check_invariants off.
  CoreConfig core = [] {
    CoreConfig c;
    c.check_invariants = true;
    return c;
  }();
};

struct FuzzCaseResult {
  bool ok = true;
  std::string failure;        // the lockstep failure report
  std::uint64_t retired = 0;  // retire events compared in lockstep
};

// Assembles `src` and runs it through check::Lockstep for opt.cycles
// cycles. Generated programs retire continuously when healthy (they end in
// a self-retiring spin loop), so kDeadlockCycles without a retirement is a
// deadlock.
FuzzCaseResult RunLockstep(const std::string& src, const FuzzRunOptions& opt);

struct ShrinkResult {
  std::vector<bool> enabled;  // minimal failing block mask
  std::string source;         // shrunk assembly source
  std::string failure;        // failure report of the shrunk case
  int runs = 0;               // lockstep executions spent shrinking
};

// Greedy shrink to a fixpoint: repeatedly re-runs with each still-enabled
// block disabled, keeping every disable under which the case still fails.
ShrinkResult ShrinkFailure(const FuzzProgram& prog, const FuzzRunOptions& opt);

}  // namespace tfsim::check
