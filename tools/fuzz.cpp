// Differential fuzzer driver: generate N random trap-free programs per
// shape (see src/check/progfuzz.h), run each on the detailed core in
// lockstep with the functional simulator with per-cycle invariant checking,
// and greedily shrink any failing case before printing it.
//
//   fuzz --seeds 200                 # 200 seeds, every shape
//   fuzz --seeds 50 --shape store    # store-heavy programs only
//   fuzz --seed-base 1000 --print    # different seed range, echo sources
//   fuzz --seeds 25 --rob 16 --lq 4 --sq 4   # non-default core geometry
//
// TFI_SMOKE_SEEDS overrides --seeds (here the env wins over the flag, unlike
// the TFI_* campaign knobs), so CI can deepen the pinned `fuzz_smoke` ctest
// without editing CMake.
//
// Exit code is the number of failing cases (0 = clean sweep).
#include <cstdio>
#include <string>
#include <vector>

#include "check/fuzz_harness.h"
#include "check/progfuzz.h"
#include "uarch/config.h"
#include "util/argparse.h"
#include "util/env.h"

using namespace tfsim;
using namespace tfsim::check;

int main(int argc, char** argv) {
  std::int64_t seeds = 25;
  std::int64_t seed_base = 0;
  std::int64_t cycles = 15000;
  std::string shape_name;
  bool no_check = false;
  bool no_shrink = false;
  bool print = false;
  bool quiet = false;
  // Core geometry overrides (0 = keep the CoreConfig default), so the
  // differential fuzzer exercises non-default shapes too.
  CoreConfig geo;
  std::int64_t rob = 0, sched = 0, lq = 0, sq = 0, pregs = 0;
  ArgParser ap;
  ap.AddInt("seeds", &seeds, "seeds per shape");
  ap.AddInt("seed-base", &seed_base, "first seed value");
  ap.AddInt("cycles", &cycles, "lockstep cycles per case");
  ap.AddStr("shape", &shape_name,
            "only this shape (mixed|alu|store|branch|mem)");
  ap.AddInt("rob", &rob, "ROB entries (0 = default)");
  ap.AddInt("sched", &sched, "scheduler entries (0 = default)");
  ap.AddInt("lq", &lq, "load-queue entries (0 = default)");
  ap.AddInt("sq", &sq, "store-queue entries (0 = default)");
  ap.AddInt("pregs", &pregs, "physical registers (0 = default)");
  ap.AddFlag("no-check", &no_check, "disable the invariant checker");
  ap.AddFlag("no-shrink", &no_shrink, "skip shrinking failing cases");
  ap.AddFlag("print", &print, "echo each generated program");
  ap.AddFlag("quiet", &quiet, "only report failures and the final tally");
  if (!ap.Parse(argc, argv) || !ap.positional().empty()) {
    std::fprintf(stderr, "%s\nusage: fuzz [flags]\n%s",
                 ap.error().empty() ? "unexpected positional argument"
                                    : ap.error().c_str(),
                 ap.Help().c_str());
    return 2;
  }
  seeds = EnvInt("TFI_SMOKE_SEEDS", seeds);
  if (seeds < 1) seeds = 1;

  std::vector<FuzzShape> shapes;
  if (shape_name.empty()) {
    shapes = AllFuzzShapes();
  } else if (const auto sh = FuzzShapeFromName(shape_name)) {
    shapes = {*sh};
  } else {
    std::fprintf(stderr, "unknown --shape '%s' (mixed|alu|store|branch|mem)\n",
                 shape_name.c_str());
    return 2;
  }

  FuzzRunOptions opt;
  opt.cycles = static_cast<std::uint64_t>(cycles);
  opt.check_invariants = !no_check;
  if (rob > 0) geo.rob_entries = static_cast<int>(rob);
  if (sched > 0) geo.sched_entries = static_cast<int>(sched);
  if (lq > 0) geo.lq_entries = static_cast<int>(lq);
  if (sq > 0) geo.sq_entries = static_cast<int>(sq);
  if (pregs > 0) geo.phys_regs = static_cast<int>(pregs);
  if (const std::vector<ConfigIssue> issues = geo.Validate();
      !issues.empty()) {
    for (const ConfigIssue& i : issues)
      std::fprintf(stderr, "fuzz: invalid geometry: %s: %s\n",
                   i.field.c_str(), i.message.c_str());
    return 2;
  }
  opt.core = geo;

  int failures = 0;
  std::uint64_t total_retired = 0;
  int cases = 0;
  for (const FuzzShape sh : shapes) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed =
          static_cast<std::uint64_t>(seed_base + s) * 0x9E3779B97F4A7C15ULL +
          17;
      const FuzzProgram prog = GenerateFuzzProgram(seed, sh);
      if (print) std::printf("--- shape=%s seed=%lld ---\n%s\n",
                             FuzzShapeName(sh), (long long)(seed_base + s),
                             prog.Source().c_str());
      const FuzzCaseResult r = RunLockstep(prog.Source(), opt);
      ++cases;
      total_retired += r.retired;
      if (r.ok) {
        if (!quiet)
          std::printf("[%-6s seed %4lld] ok: %llu retires compared\n",
                      FuzzShapeName(sh), (long long)(seed_base + s),
                      (unsigned long long)r.retired);
        continue;
      }
      ++failures;
      std::printf("[%-6s seed %4lld] FAIL: %s\n", FuzzShapeName(sh),
                  (long long)(seed_base + s), r.failure.c_str());
      if (!no_shrink) {
        const ShrinkResult sr = ShrinkFailure(prog, opt);
        std::size_t kept = 0;
        for (const bool e : sr.enabled) kept += e ? 1 : 0;
        std::printf(
            "  shrunk to %zu/%zu blocks in %d runs; failure: %s\n"
            "--- shrunk reproducer ---\n%s-------------------------\n",
            kept, sr.enabled.size(), sr.runs, sr.failure.c_str(),
            sr.source.c_str());
      }
    }
  }
  std::printf("fuzz: %d/%d cases failed, %llu retires compared%s\n", failures,
              cases, (unsigned long long)total_retired,
              no_check ? " (invariant checker off)" : "");
  return failures;
}
