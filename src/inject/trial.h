// Single fault-injection trial: restore the machine at the injection cycle,
// flip one bit, then co-compare against the golden timeline for up to the
// observation window, classifying the paper's four outcomes and seven
// failure modes.
//
// Trials execute through TrialRunner, which owns its core replica and an
// explicit TrialPolicy. With the fast path enabled (the default) and a
// golden run recorded with a FastPathPlan, a trial starts *at* its injection
// cycle from a pre-captured delta snapshot instead of replaying `offset`
// cycles from a checkpoint — and most trials never simulate at all: the
// recorder's first-access data proves a flipped word was either overwritten
// at a known cycle (μArch Match, exact re-convergence latency) or never
// touched inside the window (Gray Area). Only trials whose flipped word is
// *read* while divergent execute the differential loop. Fast and slow paths
// produce byte-identical TrialRecords and propagation traces.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "inject/golden.h"
#include "inject/outcome.h"
#include "obs/prop_trace.h"
#include "uarch/core.h"

namespace tfsim {

struct TrialSpec {
  int checkpoint = 0;            // start point
  std::uint64_t offset = 0;      // cycles from the checkpoint to injection
  std::uint64_t bit_index = 0;   // uniform index into the eligible bit space
  bool include_ram = true;       // latches+RAMs (true) or latches only
  // Extension beyond the paper (whose Section 6 flags the single-bit model
  // as a threat to validity): flip `flips` bits per trial. When `adjacent`,
  // the extra flips hit neighbouring bits of the same element (a spatially
  // correlated strike); otherwise they land uniformly at random.
  int flips = 1;
  bool adjacent = false;
};

// How TrialRunner executes trials. Execution policy only: fast_path
// classifies a given TrialSpec identically either way.
struct TrialPolicy {
  bool fast_path = true;        // use fast-path data when the golden has it
  bool check_invariants = false;  // run the replica with the cycle checker
};

// Where a TrialSpec lands: the resolved timeline cycles and flipped bits.
// The single source of truth shared by trial execution, fast-path capture
// planning, and heatmap site re-derivation (inject/report.cpp), so the three
// can never drift.
struct InjectionSite {
  std::uint64_t base = 0;       // checkpoint cycle (timeline index)
  std::uint64_t inj_cycle = 0;  // first cycle executed after injection
  // Timeline index whose recorded state the injected machine was in
  // (utilization sampling; equals inj_cycle - 1 except at offset 0).
  std::uint64_t inj_index = 0;
  BitLocation primary;              // the uniformly drawn bit
  std::vector<BitLocation> flips;   // all flips in application order
};

// Resolves a trial's injection site against a registry of the golden
// machine's layout (any core built from the same config and program).
InjectionSite ResolveInjectionSite(const GoldenSpec& spec,
                                   const TrialSpec& trial,
                                   const StateRegistry& registry);

// Derives the golden recorder's fast-path capture plan (injection-cycle
// snapshots + first-access watches) from a campaign's trial specs.
FastPathPlan PlanFastPath(const GoldenSpec& spec,
                          const std::vector<TrialSpec>& trials,
                          const StateRegistry& registry);

// Runs fault-injection trials against one golden run on a privately owned
// core replica (campaign workers hold one runner each; the golden run is
// shared read-only). Classification depends only on the golden run and the
// TrialSpec — never on fast_path or on how many trials ran before. A traced
// trial that simulates also steps a second, fault-free replica in lockstep
// to see which categories diverge.
class TrialRunner {
 public:
  explicit TrialRunner(std::shared_ptr<const GoldenRun> golden,
                       TrialPolicy policy = {});

  struct Result {
    TrialRecord record;
    // Populated when Run() was asked to trace; identical to a slow traced
    // trial's on every path.
    obs::PropagationTrace trace;
    bool fast = false;        // classified from first-access data, no sim
    bool quarantined = false; // record is the kTrialError stand-in
    std::string error;        // failure message when quarantined
  };

  // Runs one trial, once. A trial that throws is quarantined: its record
  // is the kTrialError stand-in and `error` holds the message. A thrown
  // trial would throw again (every throw site is deterministic), so there
  // is no retry. `fault_hook`, when set, runs first and may throw to stand
  // for such a failure (tests). Under check_invariants, a structurally
  // inconsistent machine also quarantines (its trace is kept; the checker
  // state stays readable via core() until the next Run).
  Result Run(const TrialSpec& spec, bool want_trace = false,
             const std::function<void()>& fault_hook = {});

  // The owned replica: registry layout for site introspection, and the
  // invariant checker's verdicts after a checked Run(). Mutated by Run().
  Core& core() { return *core_; }
  const Core& core() const { return *core_; }

 private:
  TrialRecord RunOnce(const TrialSpec& spec, obs::PropagationTrace* trace,
                      bool* fast);
  TrialRecord Simulate(const TrialSpec& spec, const InjectionSite& site,
                       obs::PropagationTrace* trace);
  bool TryShortcut(const TrialSpec& spec, const InjectionSite& site,
                   TrialRecord& rec, obs::PropagationTrace* trace);

  std::shared_ptr<const GoldenRun> golden_;
  TrialPolicy policy_;
  std::unique_ptr<Core> core_;
  std::unique_ptr<Core> replica_;  // fault-free twin; built on first trace
};

}  // namespace tfsim
