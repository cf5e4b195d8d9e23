// Golden-run recording: one fault-free execution of a workload on the
// detailed pipeline, co-verified against the functional simulator, with
// per-cycle machine-state hashes, the retire-event stream, architectural
// view samples, checkpoints for trial start points, and the valid-in-flight
// instrumentation behind Figure 6.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/arch_state.h"
#include "arch/tlb.h"
#include "isa/assemble.h"
#include "obs/sinks.h"
#include "uarch/config.h"
#include "uarch/core.h"

namespace tfsim {

struct GoldenSpec {
  std::uint64_t warmup = 60000;    // cycles before the first checkpoint
                                   // (past every workload's init phase)
  int points = 12;                 // checkpoints (paper: 250-300 start points)
  std::uint64_t spacing = 1500;    // cycles between checkpoints
  std::uint64_t window = 10000;    // trial observation window (paper: 10 000)
  std::uint64_t offset_max = 200;  // injection offset within a start point
  std::uint64_t slack = 2000;      // timeline recorded beyond the last window
};

// The recorded timeline. Index 0 corresponds to the first checkpoint's cycle;
// all per-cycle vectors are sampled at the END of each cycle.
struct GoldenTimeline {
  std::vector<std::uint64_t> state_hash;  // whole-machine hash per cycle
  std::vector<std::uint64_t> arch_hash;   // ArchViewHash per cycle
  std::vector<std::uint64_t> mem_hash;    // memory+output content hash
  std::vector<std::uint8_t> sb_empty;     // store buffer empty?
  std::vector<std::uint64_t> retired_total;  // cumulative retire count
  std::vector<RetireEvent> events;        // flat retire-event stream
  std::uint64_t base_retired = 0;  // retired_total before timeline index 0
  // First timeline index at which retired_total equals the key.
  std::unordered_map<std::uint64_t, std::size_t> count_to_cycle;
  // Figure 6 instrumentation: in-flight seq range per cycle + retirement map.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seq_range;
  std::vector<std::uint64_t> inflight;
  std::vector<bool> seq_retired;  // indexed by fetch sequence number

  // Event for absolute retirement index, or nullptr past the recording.
  const RetireEvent* EventAt(std::uint64_t absolute_index) const {
    if (absolute_index < base_retired) return nullptr;
    const std::uint64_t i = absolute_index - base_retired;
    return i < events.size() ? &events[i] : nullptr;
  }

  // Number of in-flight-at-cycle instructions that eventually retire
  // (the paper's "valid instructions in the pipeline", Figure 6).
  std::uint32_t ValidInstrsAt(std::size_t cycle_index) const;
};

// What the golden recorder should pre-capture for the trial fast path,
// derived from a campaign's trial specs (PlanFastPath in inject/trial.h).
// Cycles are timeline indices (0 = the first checkpoint's cycle).
struct FastPathPlan {
  // Distinct injection cycles to delta-snapshot, sorted ascending. A trial's
  // injection cycle is checkpoint*spacing + offset: the machine state
  // *before* that timeline cycle executes is the trial's start state.
  std::vector<std::uint64_t> snapshot_cycles;
  // (registry word, injection cycle) pairs whose first post-injection access
  // the recorder tracks — the words the campaign's trials flip.
  std::vector<std::pair<std::size_t, std::uint64_t>> watches;
};

// Fast-path data captured during recording when a FastPathPlan was supplied.
// Immutable after RecordGolden returns; shared read-only across trial
// workers like the rest of GoldenRun.
struct GoldenFastPath {
  bool enabled = false;
  // Machine state at each planned injection cycle, stored as a sparse delta
  // against an already-saved checkpoint (~20 KB instead of a ~350 KB full
  // snapshot). Restoring base_checkpoint + delta reproduces bit-exactly the
  // state a slow trial reaches by replaying `offset` cycles.
  struct Point {
    std::size_t base_checkpoint = 0;
    Core::SnapshotDelta delta;
  };
  std::unordered_map<std::uint64_t, Point> points;  // keyed by injection cycle
  // First pipeline access (plus the continuous architectural-view check's
  // reads) to each watched (word, cycle) pair. Lookup() answers whether a
  // flipped word was overwritten (trial provably re-converges), never
  // touched (provably stays latent), or read (trial must simulate).
  std::shared_ptr<const WordFirstAccessTracker> access;
};

struct GoldenRun {
  CoreConfig cfg;
  Program program;
  GoldenSpec spec;
  GoldenTimeline timeline;
  std::vector<Core::Snapshot> checkpoints;  // checkpoint k at index k*spacing
  GoldenFastPath fastpath;  // populated when recorded with a FastPathPlan
  Tlb tlb;        // pages learned across the whole golden run
  CoreStats stats;  // golden pipeline statistics (IPC etc.)
};

// Records a golden run. Throws std::runtime_error if the pipeline diverges
// from the functional simulator, raises an exception, or deadlocks — any of
// which would indicate a model bug, not a valid golden execution. When `obs`
// is non-null its sinks observe the fault-free execution: per-cycle stage
// occupancies land in the metrics registry and (sampled) in the chrome
// trace's pipeline lane. When `fastpath` is non-null the recorder
// additionally captures injection-cycle snapshots and first-access data for
// the trial fast path (GoldenRun::fastpath); recording output is otherwise
// unchanged.
std::shared_ptr<const GoldenRun> RecordGolden(const CoreConfig& cfg,
                                              const Program& program,
                                              const GoldenSpec& spec,
                                              const obs::ObsSinks* obs =
                                                  nullptr,
                                              const FastPathPlan* fastpath =
                                                  nullptr);

}  // namespace tfsim
