#include "check/fuzz_harness.h"

#include "check/lockstep.h"
#include "isa/assemble.h"

namespace tfsim::check {

FuzzCaseResult RunLockstep(const std::string& src, const FuzzRunOptions& opt) {
  Lockstep ls(opt.core, Assemble(src), kDeadlockCycles);
  FuzzCaseResult r;
  r.ok = ls.Run(opt.cycles);
  r.failure = ls.Failure();
  r.retired = ls.retired();
  return r;
}

ShrinkResult ShrinkFailure(const FuzzProgram& prog,
                           const FuzzRunOptions& opt) {
  ShrinkResult out;
  out.enabled.assign(prog.blocks.size(), true);
  const FuzzCaseResult full = RunLockstep(prog.Source(out.enabled), opt);
  ++out.runs;
  out.failure = full.failure;
  if (full.ok) {  // caller error (case doesn't fail); return it unshrunk
    out.source = prog.Source(out.enabled);
    return out;
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < out.enabled.size(); ++i) {
      if (!out.enabled[i]) continue;
      out.enabled[i] = false;
      const FuzzCaseResult r = RunLockstep(prog.Source(out.enabled), opt);
      ++out.runs;
      if (r.ok) {
        out.enabled[i] = true;  // block is load-bearing, keep it
      } else {
        out.failure = r.failure;
        progress = true;
      }
    }
  }
  out.source = prog.Source(out.enabled);
  return out;
}

}  // namespace tfsim::check
