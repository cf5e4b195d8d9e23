#include "uarch/scheduler.h"

#include "uarch/uop.h"

#include <algorithm>

namespace tfsim {

Scheduler::Scheduler(StateRegistry& reg, const CoreConfig& cfg)
    : parity_on(cfg.protect.insn_parity), ecc_on(cfg.protect.regptr_ecc),
      entries_(static_cast<std::uint64_t>(cfg.sched_entries)) {
  const auto ram = Storage::kRam;
  const std::uint64_t n = entries_;
  valid = reg.Allocate("sched.valid", StateCat::kValid, ram, n, 1);
  state = reg.Allocate("sched.state", StateCat::kCtrl, ram, n, 2);
  ctrl = reg.Allocate("sched.ctrl", StateCat::kCtrl, ram, n, kCtrlBits);
  insn = reg.Allocate("sched.insn", StateCat::kInsn, ram, n, 32);
  if (parity_on)
    parity = reg.Allocate("sched.parity", StateCat::kParity, ram, n, 1);
  pc = reg.Allocate("sched.pc", StateCat::kPc, ram, n, kPcBits);
  pred_taken = reg.Allocate("sched.pred_taken", StateCat::kCtrl, ram, n, 1);
  pred_target =
      reg.Allocate("sched.pred_target", StateCat::kPc, ram, n, kPcBits);
  ras_ckpt = reg.Allocate("sched.ras_ckpt", StateCat::kCtrl, ram, n,
                          IndexBits(static_cast<std::uint64_t>(cfg.ras_entries)));
  src1p = reg.Allocate("sched.src1p", StateCat::kRegptr, ram, n, 7);
  src2p = reg.Allocate("sched.src2p", StateCat::kRegptr, ram, n, 7);
  dstp = reg.Allocate("sched.dstp", StateCat::kRegptr, ram, n, 7);
  if (ecc_on) {
    src1_ecc = reg.Allocate("sched.src1_ecc", StateCat::kEcc, ram, n, 4);
    src2_ecc = reg.Allocate("sched.src2_ecc", StateCat::kEcc, ram, n, 4);
    dst_ecc = reg.Allocate("sched.dst_ecc", StateCat::kEcc, ram, n, 4);
  }
  src1_rdy = reg.Allocate("sched.src1_rdy", StateCat::kCtrl, ram, n, 1);
  src2_rdy = reg.Allocate("sched.src2_rdy", StateCat::kCtrl, ram, n, 1);
  has_dst = reg.Allocate("sched.has_dst", StateCat::kCtrl, ram, n, 1);
  const std::uint64_t robbits =
      IndexBits(static_cast<std::uint64_t>(cfg.rob_entries));
  robtag = reg.Allocate("sched.robtag", StateCat::kRobptr, ram, n, robbits);
  lsq_idx = reg.Allocate("sched.lsq_idx", StateCat::kCtrl, ram, n,
                         IndexBits(static_cast<std::uint64_t>(
                             std::max(cfg.lq_entries, cfg.sq_entries))));
  wait_store = reg.Allocate("sched.wait_store", StateCat::kCtrl, ram, n, 1);
  wait_tag = reg.Allocate("sched.wait_tag", StateCat::kRobptr, ram, n, robbits);
  alloc_ptr = reg.Allocate("sched.alloc_ptr", StateCat::kQctrl,
                           Storage::kLatch, 1, IndexBits(entries_));
}

std::optional<std::size_t> Scheduler::FreeEntry() const {
  const FieldScan v(valid);
  const std::uint64_t start = alloc_ptr.Get(0) % entries_;
  for (std::size_t k = 0; k < entries_; ++k) {
    const std::size_t i = (start + k) % entries_;
    if (v[i] == 0) return i;
  }
  return std::nullopt;
}

void Scheduler::NoteAllocated(std::size_t i) {
  alloc_ptr.Set(0, (i + 1) % entries_);
}

int Scheduler::Occupancy() const {
  int n = 0;
  for (std::size_t i = 0; i < entries_; ++i)
    if (valid.GetBit(i)) ++n;
  return n;
}

void Scheduler::Wakeup(std::uint64_t preg) {
  const FieldScan v(valid), s1(src1p), s2(src2p);
  for (std::size_t i = 0; i < entries_; ++i) {
    if (v[i] == 0) continue;
    if (s1[i] == preg) src1_rdy.Set(i, 1);
    if (s2[i] == preg) src2_rdy.Set(i, 1);
  }
}

void Scheduler::KillWakeup(std::uint64_t preg, std::uint64_t loader_entry) {
  const FieldScan v(valid), c(ctrl), s1(src1p), s2(src2p), st(state);
  for (std::size_t i = 0; i < entries_; ++i) {
    if (v[i] == 0 || i == loader_entry) continue;
    // Only real dependents match: an unused source slot holds a dummy
    // pointer, and clearing readiness on a dummy alias would revert an
    // entry whose execution may already be in flight past the poisonable
    // latches — it would then issue and complete twice, double-freeing its
    // scheduler slot onto the slot's next tenant.
    const DecodedInst d = UnpackCtrl(c[i]);
    bool hit = false;
    if (OpHasSrc1(d.op) && s1[i] == preg) {
      src1_rdy.Set(i, 0);
      hit = true;
    }
    if (OpHasSrc2(d.op) && s2[i] == preg) {
      src2_rdy.Set(i, 0);
      hit = true;
    }
    if (hit && st[i] == kIssued) state.Set(i, kWaiting);  // replay
  }
}

void Scheduler::StoreExecuted(std::uint64_t rob_tag) {
  const FieldScan v(valid), ws(wait_store), wt(wait_tag);
  for (std::size_t i = 0; i < entries_; ++i) {
    if (v[i] == 0) continue;
    if (ws[i] != 0 && wt[i] == rob_tag) wait_store.Set(i, 0);
  }
}

void Scheduler::Clear() {
  for (std::size_t i = 0; i < entries_; ++i) valid.Set(i, 0);
}

}  // namespace tfsim
