// Lockstep co-simulation: the detailed pipeline and the architectural
// reference (FunctionalSim) run one program together, a cycle at a time,
// and every retire event must equal the reference's next instruction. The
// golden recorder, the differential fuzzer, `tfi run` and the
// co-simulation tests all step through this one comparison.
#pragma once

#include <cstdint>
#include <string>

#include "arch/functional_sim.h"
#include "uarch/core.h"

namespace tfsim::check {

// Retire-less cycles that make a deadlock for callers without a tighter
// bound (the golden recorder uses kLockedThresholdCycles); generous, so
// starved core shapes pass.
inline constexpr std::uint64_t kDeadlockCycles = 2000;

class Lockstep {
 public:
  Lockstep(const CoreConfig& cfg, const Program& program,
           std::uint64_t stall_cycles);

  // Advances the core one cycle and checks, in order: pipeline exception,
  // iTLB miss, retire events against the reference, invariant violations
  // (when CoreConfig::check_invariants is on), stall_cycles cycles without
  // a retirement, program exit. Returns false once the run has ended, at
  // the first failure or cleanly at program exit; later calls do nothing.
  // The passing path allocates nothing.
  bool Step();

  // Steps up to `cycles` more cycles or until the run ends; returns ok().
  bool Run(std::uint64_t cycles);

  // The pipeline under test, for setup before the first Step() (TLB
  // learning, observability sinks, fault injection) and for final stats.
  Core& core() { return core_; }
  const Core& core() const { return core_; }

  bool ok() const { return failure_.empty(); }
  bool exited() const { return exited_; }  // ended cleanly at program exit
  std::uint64_t cycles() const { return cycles_; }    // Step()s taken
  std::uint64_t retired() const { return retired_; }  // events compared

  // The failure and its cycle (a mismatch adds both events on two more
  // lines); empty while ok().
  const std::string& Failure() const { return failure_; }

 private:
  bool Fail(const std::string& what, const std::string& detail = "");

  Core core_;
  FunctionalSim ref_;
  std::uint64_t stall_cycles_;
  bool exited_ = false;
  std::string failure_;
  std::uint64_t cycles_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t last_retire_ = 0;  // cycles_ after the last retiring cycle
};

}  // namespace tfsim::check
