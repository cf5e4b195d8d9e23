// Trial outcome taxonomy — exactly the paper's Section 2.2 outcomes and
// Section 4.1 (Table 2) failure modes.
#pragma once

#include <cstdint>

#include "state/state_registry.h"

namespace tfsim {

// The paper's four trial outcomes (Section 2.2), plus one harness-level
// outcome: a trial whose execution itself failed (an exception escaped the
// trial runner) is quarantined as kTrialError rather than aborting the
// campaign. kTrialError says nothing about the injected machine — it marks
// a hole in the sample that the aggregation layers can see and report.
enum class Outcome : std::uint8_t {
  kMicroArchMatch,  // entire machine state re-converged with the golden run
  kTerminated,      // premature termination (exception or deadlock)
  kSdc,             // silent data corruption of architectural state
  kGrayArea,        // neither failed nor provably re-converged in the window
  kTrialError,      // the trial itself threw and was quarantined
};
inline constexpr int kNumOutcomes = 5;
// The first four outcomes are the paper's taxonomy; figure tables and
// masked/failure statistics iterate these and treat quarantined trials as
// holes in the sample rather than machine behaviour.
inline constexpr int kNumPaperOutcomes = 4;
const char* OutcomeName(Outcome o);

// Seven failure modes (Table 2). kNoFailure for non-failing outcomes.
enum class FailureMode : std::uint8_t {
  kNoFailure,
  kCtrl,     // SDC: control-flow violation (wrong instruction committed)
  kDtlb,     // SDC: non-speculative access to an invalid data page
  kExcept,   // Terminated: an exception was raised
  kItlb,     // SDC: processor redirected to an invalid instruction page
  kLocked,   // Terminated: deadlock or livelock
  kMem,      // SDC: memory image inconsistent
  kRegfile,  // SDC: architectural register file inconsistent
};
inline constexpr int kNumFailureModes = 8;
const char* FailureModeName(FailureMode m);

// True for the SDC-typed failure modes (Table 2's Type column).
bool IsSdcMode(FailureMode m);

// One completed fault-injection trial.
struct TrialRecord {
  Outcome outcome = Outcome::kGrayArea;
  FailureMode mode = FailureMode::kNoFailure;
  StateCat cat = StateCat::kCtrl;     // category of the flipped bit
  Storage storage = Storage::kLatch;  // latch vs RAM
  std::uint32_t cycles = 0;           // cycles until classification
  std::uint32_t valid_instrs = 0;     // Figure 6 x-axis at injection time
  std::uint32_t inflight = 0;         // raw occupancy at injection time

  bool operator==(const TrialRecord&) const = default;
};

}  // namespace tfsim
