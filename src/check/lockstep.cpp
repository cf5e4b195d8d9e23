#include "check/lockstep.h"

#include <cstdio>

#include "check/invariants.h"

namespace tfsim::check {

Lockstep::Lockstep(const CoreConfig& cfg, const Program& program,
                   std::uint64_t stall_cycles)
    : core_(cfg, program), ref_(program), stall_cycles_(stall_cycles) {}

// Cycles are numbered from 0, so the failing Step() was cycle cycles_-1.
bool Lockstep::Fail(const std::string& what, const std::string& detail) {
  failure_ = what + " at cycle " + std::to_string(cycles_ - 1) + detail;
  return false;
}

bool Lockstep::Step() {
  if (exited_ || !ok()) return false;
  core_.Cycle();
  ++cycles_;
  if (core_.halted_exception() != Exception::kNone)
    return Fail(std::string("pipeline exception ") +
                ExceptionName(core_.halted_exception()));
  if (core_.itlb_miss()) {
    char addr[32];
    std::snprintf(addr, sizeof addr, " addr=0x%llx",
                  static_cast<unsigned long long>(core_.itlb_addr()));
    return Fail("itlb miss", addr);
  }
  const std::vector<RetireEvent>& retired = core_.RetiredThisCycle();
  for (const RetireEvent& ev : retired) {
    const RetireEvent want = ref_.Step();
    if (!(ev == want))
      return Fail("retire mismatch #" + std::to_string(retired_),
                  "\n  core: " + ToString(ev) + "\n  ref : " + ToString(want));
    ++retired_;
  }
  if (const InvariantChecker* chk = core_.invariant_checker();
      chk && chk->total() != 0) {
    const InvariantViolation& v = chk->violations().front();
    return Fail(std::string("invariant violation [") +
                    InvariantKindName(v.kind) + "]",
                ": " + v.detail);
  }
  if (!retired.empty()) last_retire_ = cycles_;
  if (cycles_ - last_retire_ >= stall_cycles_)
    return Fail("deadlock: no retirement in " + std::to_string(stall_cycles_) +
                " cycles");
  exited_ = core_.exited();
  return !exited_;
}

bool Lockstep::Run(std::uint64_t cycles) {
  for (std::uint64_t c = 0; c < cycles && Step(); ++c) {
  }
  return ok();
}

}  // namespace tfsim::check
