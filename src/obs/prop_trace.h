// Per-trial fault-propagation trace: where an injected bit went and how
// long it took to get there. Recorded during differential execution in
// inject/trial.cpp (at category granularity, diffing the registry against a
// fault-free replica stepped in lockstep) and exported as one JSONL row per
// trial alongside the aggregate CSVs.
//
// This surfaces the paper's latency and masking story per trial: a fault is
// *architecturally latent* between injection and first architectural
// divergence, and *masked* if it never diverges before re-convergence or
// window expiry.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "inject/outcome.h"

namespace tfsim::obs {

struct PropagationTrace {
  // --- injection site ------------------------------------------------------
  std::string field;                     // registry field name of the bit
  StateCat cat = StateCat::kCtrl;        // injected category
  Storage storage = Storage::kLatch;
  std::uint8_t bit = 0;                  // bit position within the element
  int flips = 1;                         // bits flipped (multi-bit models)

  // --- classification ------------------------------------------------------
  Outcome outcome = Outcome::kGrayArea;
  FailureMode mode = FailureMode::kNoFailure;
  std::uint32_t classified_cycle = 0;  // cycles from injection to verdict

  // --- propagation ---------------------------------------------------------
  // First cycle (from injection) at which the architectural view provably
  // diverged from golden: a retire-event mismatch, an exception, or a
  // retirement-count-aligned architectural-state mismatch. -1 when the fault
  // stayed architecturally silent for the whole observation.
  std::int64_t arch_divergence_cycle = -1;
  // First cycle at which a state category OTHER than the injected one
  // diverged from golden (the fault escaped its home structure). -1 when it
  // never spread.
  std::int64_t first_spread_cycle = -1;
  // Category that first received the spread (valid when first_spread_cycle
  // >= 0); the lowest StateCat index among those that spread that cycle.
  StateCat first_spread_cat = StateCat::kCtrl;
  // Bitmask (1 << StateCat) of every category observed divergent from golden
  // at any point before classification. Includes the injected category
  // unless the flip was overwritten before the first end-of-cycle sample.
  std::uint32_t cats_touched_mask = 0;

  // --- self-checking -------------------------------------------------------
  // Structural invariant violations observed by the per-cycle checker during
  // the trial. Only populated when the trial core ran with
  // CoreConfig::check_invariants (checked campaigns); all-zero otherwise.
  std::uint64_t invariant_violations = 0;
  std::int64_t first_violation_cycle = -1;  // cycles from injection; -1 = none
  std::string first_violation_kind;         // InvariantKindName, "" = none

  // --- context -------------------------------------------------------------
  std::uint32_t valid_instrs = 0;  // Figure 6 statistic at injection
  std::uint32_t inflight = 0;

  bool Touched(StateCat c) const {
    return cats_touched_mask & (1u << static_cast<int>(c));
  }
};

// Writes one JSONL row (object + newline). `workload` and `trial_index`
// identify the row within a campaign export.
void WritePropTraceRow(const PropagationTrace& t, const std::string& workload,
                       std::uint64_t trial_index, std::ostream& os);

}  // namespace tfsim::obs
