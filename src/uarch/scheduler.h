// Dynamic scheduler: 32 entries with speculative wakeup and instruction
// replay (Figure 2). Entries hold the full renamed payload (the paper's
// "scheduler payload" RAM). An entry is NOT freed at issue — only once its
// instruction is known to complete — which the paper calls out as a source
// of dead-but-allocated state.
//
// Speculative wakeup: when a load issues, consumers are woken assuming a
// cache hit; if the load misses, a kill broadcast un-readies the load's
// destination tag everywhere and reverts speculatively issued consumers to
// waiting (replay).
#pragma once

#include <cstdint>
#include <optional>

#include "state/state_registry.h"
#include "uarch/config.h"
#include "uarch/uop.h"

namespace tfsim {

class Scheduler {
 public:
  Scheduler(StateRegistry& reg, const CoreConfig& cfg);

  std::uint64_t entries() const { return entries_; }

  // Index of a free entry, if any (round-robin from the allocation pointer
  // so every payload slot is recycled — matching circular allocation in
  // real schedulers and keeping dead slots from going stale).
  std::optional<std::size_t> FreeEntry() const;
  // Advances the allocation pointer past a just-filled entry.
  void NoteAllocated(std::size_t i);
  int Occupancy() const;

  // Marks srcs whose physical register broadcast just happened as ready.
  void Wakeup(std::uint64_t preg);
  // Reverts a speculative wakeup of `preg` (load miss replay): clears ready
  // bits that match and moves issued-but-incomplete consumers back to
  // waiting (the core separately poisons their in-flight latch copies).
  void KillWakeup(std::uint64_t preg, std::uint64_t loader_entry);

  // A store with this ROB tag executed: clears matching wait_store fields.
  void StoreExecuted(std::uint64_t rob_tag);

  void Free(std::size_t i) { valid.Set(i, 0); }
  void Clear();

  // Entry state values (2-bit `state` field).
  static constexpr std::uint64_t kWaiting = 0;
  static constexpr std::uint64_t kIssued = 1;

  // Calls fn(i) for each entry ready to issue (valid, waiting, both sources
  // ready, no pending store-set dependence), in index order.
  template <class Fn>
  void ForEachReady(Fn&& fn) const {
    const FieldScan v(valid), st(state), r1(src1_rdy), r2(src2_rdy),
        ws(wait_store);
    for (std::size_t i = 0; i < entries_; ++i) {
      if (v[i] != 0 && st[i] == kWaiting && r1[i] != 0 && r2[i] != 0 &&
          ws[i] == 0)
        fn(i);
    }
  }

  // --- payload fields (all RAM-class, injectable) ----------------------------
  StateField valid;        // 1 (valid)
  StateField state;        // 2 (ctrl): waiting / issued
  StateField ctrl;         // 26-bit packed control word (ctrl)
  StateField insn;         // 32-bit instruction word (insn)
  StateField parity;       // 1 (parity), when enabled
  StateField pc;           // 62 (pc)
  StateField pred_taken;   // 1 (ctrl)
  StateField pred_target;  // 62 (pc)
  StateField ras_ckpt;     // 3 (ctrl): RAS pointer checkpoint
  StateField src1p, src1_ecc, src1_rdy;  // 7 (regptr) / 4 (ecc) / 1 (ctrl)
  StateField src2p, src2_ecc, src2_rdy;
  StateField dstp, dst_ecc;  // 7 (regptr) / 4 (ecc)
  StateField has_dst;      // 1 (ctrl)
  StateField robtag;       // 6 (robptr)
  StateField lsq_idx;      // 4 (ctrl)
  StateField wait_store;   // 1 (ctrl): store-set dependence pending
  StateField wait_tag;     // 6 (robptr)
  StateField alloc_ptr;    // 5 (qctrl latch): round-robin allocation

  bool parity_on;
  bool ecc_on;

 private:
  std::uint64_t entries_;
};

}  // namespace tfsim
