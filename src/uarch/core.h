// The detailed pipeline model (Figure 1): a superscalar, dynamically
// scheduled, 12-stage, up-to-132-in-flight core executing miniAlpha —
// fetch (I$/bpred/RAS/FQ) -> 2-stage decode -> 4-wide rename -> 32-entry
// scheduler with speculative wakeup/replay -> register read -> 6 execution
// ports -> memory (LQ/SQ/store sets/banked D$/MSHRs) -> 64-entry ROB with
// 8-wide retirement and a post-retirement store buffer.
//
// Every microarchitectural bit lives in the StateRegistry, giving the fault
// injector a uniform bit space and giving trials an O(1) whole-machine
// state-equality test (StateHash). Stage evaluation runs in reverse pipeline
// order each cycle so writes become visible one cycle later, mimicking
// edge-triggered latching.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "arch/arch_state.h"
#include "arch/memory.h"
#include "arch/tlb.h"
#include "isa/assemble.h"
#include "obs/sinks.h"
#include "state/state_registry.h"
#include "uarch/bpred.h"
#include "uarch/config.h"
#include "uarch/dcache.h"
#include "uarch/decode_stage.h"
#include "uarch/execute.h"
#include "uarch/fetch.h"
#include "uarch/icache.h"
#include "uarch/lsq.h"
#include "uarch/regfile.h"
#include "uarch/rename.h"
#include "uarch/rob.h"
#include "uarch/scheduler.h"
#include "uarch/store_sets.h"

namespace tfsim {

namespace check {
class InvariantChecker;
}  // namespace check

// Counters exposed for experiments and realism checks (plain instrumentation,
// not machine state).
struct CoreStats {
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t loads = 0;
  std::uint64_t dcache_misses = 0;
  std::uint64_t replays = 0;
  std::uint64_t wakeup_replays = 0;
  std::uint64_t order_violations = 0;
  std::uint64_t full_flushes = 0;
  std::uint64_t timeout_flushes = 0;
  std::uint64_t parity_flushes = 0;
  double Ipc() const {
    return cycles ? static_cast<double>(retired) / static_cast<double>(cycles)
                  : 0.0;
  }
};

class Core {
 public:
  Core(const CoreConfig& cfg, const Program& program);
  ~Core();  // out-of-line: InvariantChecker is incomplete here

  // Advances one clock. Retire events produced this cycle are available via
  // RetiredThisCycle() until the next call.
  void Cycle();

  const std::vector<RetireEvent>& RetiredThisCycle() const {
    return retired_this_cycle_;
  }

  // Whole-machine content hash: pipeline + caches + predictors + memory +
  // program output. Equality with the golden run's hash at the same cycle is
  // the paper's "ENTIRE microarchitectural state" match.
  std::uint64_t StateHash() const;

  // Architectural-view hash: the 32 architectural registers as seen through
  // the architectural RAT, plus the next-retirement PC. Compared against the
  // golden run at equal retirement counts (paper: architectural state is
  // verified continuously).
  std::uint64_t ArchViewHash();

  StateRegistry& registry() { return registry_; }
  const StateRegistry& registry() const { return registry_; }
  Memory& memory() { return mem_; }
  Tlb& tlb() { return tlb_; }
  CoreStats& stats() { return stats_; }
  const CoreStats& stats() const { return stats_; }
  const CoreConfig& config() const { return cfg_; }

  // Read-only component views for the invariant checker / audits.
  const Rename& rename_unit() const { return rename_; }
  const Rob& rob() const { return rob_; }
  const Scheduler& scheduler() const { return sched_; }
  const Lsq& lsq() const { return lsq_; }
  const std::vector<std::uint64_t>& RobSeqs() const { return rob_seq_; }
  // Non-null iff CoreConfig::check_invariants; audited after every Cycle(),
  // cleared by Load(). Violations accumulate on the checker.
  const check::InvariantChecker* invariant_checker() const {
    return checker_.get();
  }
  check::InvariantChecker* invariant_checker() { return checker_.get(); }

  bool exited() const { return exited_; }
  Exception halted_exception() const { return halted_exc_; }
  // Set when a fetch touched an unmapped instruction page (itlb failure).
  bool itlb_miss() const { return itlb_miss_; }
  std::uint64_t itlb_addr() const { return itlb_addr_; }

  std::uint64_t RetiredTotal() const { return retired_total_; }
  bool StoreBufferEmpty() const { return lsq_.SbEmpty(); }

  // Number of in-flight instructions currently occupying the ROB + frontend
  // (for the Figure 6 utilization statistic).
  std::uint64_t InFlight() const;

  // Sequence-number instrumentation for the Figure 6 valid-instruction
  // statistic (never read by pipeline logic).
  std::uint64_t OldestInflightSeq() const;
  std::uint64_t NextFetchSeq() const { return fetch_.seq_counter; }
  // Sequence number of the most recently retired instruction (valid only
  // right after a retiring cycle); kNoSeq if none.
  static constexpr std::uint64_t kNoSeq = ~0ULL;
  const std::vector<std::uint64_t>& RetiredSeqsThisCycle() const {
    return retired_seqs_this_cycle_;
  }

  // --- checkpointing ---------------------------------------------------------
  struct Snapshot {
    std::vector<std::uint64_t> words;
    Memory mem;
    std::vector<std::uint8_t> output;
    std::uint64_t out_hash = 0;
    bool exited = false;
    std::uint64_t exit_code = 0;
    Exception halted_exc = Exception::kNone;
    std::uint64_t retired_total = 0;
    // Fetch-sequence instrumentation. Never read by pipeline logic, but the
    // invariant checker audits ROB program order through it, so a restored
    // machine must carry the saving core's numbering — and a worker replica
    // must not inherit stale numbers from whatever it ran before.
    std::uint64_t seq_counter = 0;
    std::vector<std::uint64_t> fq_seq, fb_seq, d1_seq, d2_seq, rob_seq;
  };
  Snapshot Save() const;
  void Load(const Snapshot& s);

  // Sparse difference between the current machine state and an earlier full
  // Snapshot of the same run. A few dozen to a few hundred cycles of
  // execution touch ~3% of registry words and a handful of memory words, so
  // the trial fast path stores one of these per distinct injection cycle
  // (~20 KB) instead of a full ~350 KB Snapshot. LoadDelta(base, d) after
  // SaveDelta(base) reproduces the captured machine bit-exactly (hashes
  // included); CoreStats and the itlb flag reset exactly as Load() does.
  struct SnapshotDelta {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> words;  // idx, value
    std::vector<std::pair<std::uint64_t, std::uint64_t>> mem;    // addr, word
    std::vector<std::uint8_t> output;
    std::uint64_t out_hash = 0;
    bool exited = false;
    std::uint64_t exit_code = 0;
    Exception halted_exc = Exception::kNone;
    std::uint64_t retired_total = 0;
    std::uint64_t seq_counter = 0;
    std::vector<std::uint64_t> fq_seq, fb_seq, d1_seq, d2_seq, rob_seq;
    // InFlight() at capture; lets fast-path trials report utilization
    // without restoring the machine.
    std::uint64_t inflight = 0;
  };
  SnapshotDelta SaveDelta(const Snapshot& base) const;
  void LoadDelta(const Snapshot& base, const SnapshotDelta& d);

  const std::vector<std::uint8_t>& output() const { return output_; }
  std::uint64_t OutputHash() const { return out_hash_; }

  // Writes a human-readable snapshot of the whole pipeline (front end,
  // scheduler, execution ports, LSQ, ROB) to `os` — the simulator's
  // debugging window. Implemented in uarch/trace.cpp.
  void DumpPipeline(std::ostream& os) const;

  // --- observability ---------------------------------------------------------
  // Attaches (or detaches, with nullptr) observability sinks. While attached,
  // every cycle samples per-stage occupancies (fetch queue, scheduler, ROB,
  // LQ/SQ, MSHRs, total in-flight) into metric histograms, and the chrome
  // trace receives sampled occupancy counter tracks. Costs one branch per
  // cycle when detached. `obs` must outlive the attachment.
  void AttachObs(const obs::ObsSinks* obs);
  // Adds the CoreStats event counters (squashes, replays, cache misses...)
  // accumulated since the last flush to the attached metrics registry.
  // Called by hosts before detach/destruction; no-op when unattached.
  void FlushObsCounters();

 private:
  // One full clock of pipeline evaluation (Cycle() minus observability).
  void CycleInner();
  // Pipeline stages, called in reverse order from CycleInner().
  void RetireStage();
  void StoreBufferDrain();
  void WritebackStage();
  void MemStage();
  void ExecuteStage();
  void RegReadStage();
  void SelectStage();
  void DispatchStage();
  void FrontEnd();

  // Helpers.
  void FullFlush(std::uint64_t restart_pc);
  void SquashYoungerThan(std::uint64_t rob_tag, bool inclusive,
                         std::uint64_t restart_pc, std::uint64_t ras_ckpt);
  void SquashLatchesWithTag(std::uint64_t tag);
  void KillLoadDependents(std::uint64_t lq_index);
  Word65 ReadOperand(std::uint64_t preg);
  // Places a result in the WB bank; false when writeback bandwidth is
  // exhausted this cycle (caller retries next cycle).
  bool ProduceResultInternal(Word65 value, std::uint64_t dstp,
                             std::uint64_t dst_ecc, bool has_dst,
                             std::uint64_t robtag, std::uint64_t sched_idx,
                             bool free_sched);
  bool WbBankHolds(std::uint64_t preg) const;
  void ExecuteOnPort(int port);
  void DoBranch(int port, const DecodedInst& d, Word65 a);
  void DoAgu(int port, const DecodedInst& d, Word65 a, Word65 b);
  bool TryLoadAccess(std::uint64_t li);
  void CheckOrderViolation(std::uint64_t sq_index);
  void RetireOne(bool& stop);

  CoreConfig cfg_;
  StateRegistry registry_;
  Memory mem_;
  Tlb tlb_;

  // Components (construction order defines the registry layout).
  Bpred bpred_;
  ICache icache_;
  DCache dcache_;
  StoreSets storesets_;
  RegFile regfile_;
  Rename rename_;
  Rob rob_;
  Scheduler sched_;
  Lsq lsq_;
  Fetch fetch_;
  DecodePipe decode_;
  UopLatchBank issue_lat_;  // select -> register read
  UopLatchBank rr_lat_;     // register read -> execute (with operand values)
  WbBank wb_;
  ComplexPipe cpipe_;
  WakeupQueue wakeups_;

  // Retirement-side registered state.
  StateField arch_next_pc_;   // 62-bit latch (pc): restart point after flush
  StateField timeout_count_;  // 7-bit latch (ctrl), when timeout protection on
  StateField resolved_target_;  // per-ROB-entry branch targets (62, RAM, pc)

  // Program-visible side state (part of Snapshot, not the registry).
  std::vector<std::uint8_t> output_;
  std::uint64_t out_hash_ = 0;
  bool exited_ = false;
  std::uint64_t exit_code_ = 0;
  Exception halted_exc_ = Exception::kNone;
  bool itlb_miss_ = false;
  std::uint64_t itlb_addr_ = 0;
  std::uint64_t retired_total_ = 0;

  // Select-stage scratch: the cycle's ready scheduler entries with their
  // ROB age and port class, one slot per scheduler entry. Rebuilt from
  // registered state at the top of every SelectStage; nothing survives it.
  struct SelectCandidate {
    std::uint64_t age;
    std::size_t entry;
    PortClass pclass;
  };
  std::vector<SelectCandidate> select_ready_;

  // Instrumentation (never read by pipeline logic).
  std::unique_ptr<check::InvariantChecker> checker_;
  CoreStats stats_;
  std::vector<RetireEvent> retired_this_cycle_;
  std::vector<std::uint64_t> retired_seqs_this_cycle_;
  std::vector<std::uint64_t> rob_seq_;

  // Observability sinks (null when detached) and metric handles resolved at
  // attach time. Implemented in uarch/core_obs.cpp.
  void ObsSample();
  const obs::ObsSinks* obs_ = nullptr;
  obs::Histogram* h_fq_ = nullptr;
  obs::Histogram* h_sched_ = nullptr;
  obs::Histogram* h_rob_ = nullptr;
  obs::Histogram* h_lq_ = nullptr;
  obs::Histogram* h_sq_ = nullptr;
  obs::Histogram* h_mshr_ = nullptr;
  obs::Histogram* h_inflight_ = nullptr;
  // check.violations.<kind> counters, indexed by InvariantKind (resolved at
  // attach when this core runs checked; empty otherwise).
  std::vector<obs::Counter*> c_viol_;
  // Bumps c_viol_ for the kinds the checker just reported (core_obs.cpp).
  void ObsCountViolations();
  CoreStats obs_flushed_;  // counter values already pushed to the registry
};

}  // namespace tfsim
