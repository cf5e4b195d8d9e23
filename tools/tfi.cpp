// tfi — command-line driver for the transient-fault-injection toolkit.
//
// One subcommand per task, listed in the table at the end of this file:
// run (lockstep co-simulation on the pipeline), exec (functional
// execution), campaign, sweep, soft (Section 5), figures (the paper's
// tables and figures, see tools/figures.cpp), inventory (Table 1 and its
// audit), asmlint, statelint, fuzz, workloads and version. `tfi` alone lists
// them, and a usage error (`tfi campaign --help` is one) prints the flags
// that subcommand reads. Each subcommand parses only those: any other --flag, a
// flag missing its value or a wrong number of positional arguments is a
// usage error naming it (flags are never treated as positional names).
//
// Exit codes: 0 success; 1 error; 2 usage error. run, fuzz, asmlint and
// statelint exit with their count of failing programs, cases or findings.
// A campaign either completes (and lands in the results cache) or leaves
// nothing: an interrupted campaign reruns from its start. A trial that
// throws is quarantined after its one attempt, and a result holding a
// quarantined trial is not cached, so rerunning the campaign is the
// recovery.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "figures.h"

#include "analyze/asm/asmlint.h"
#include "analyze/inventory.h"
#include "analyze/statelint.h"
#include "arch/functional_sim.h"
#include "check/fuzz_harness.h"
#include "check/lockstep.h"
#include "check/progfuzz.h"
#include "inject/campaign.h"
#include "inject/report.h"
#include "inject/sweep.h"
#include "obs/chrome_trace.h"
#include "obs/events.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "soft/harden.h"
#include "soft/soft_inject.h"
#include "uarch/core.h"
#include "util/argparse.h"
#include "util/fs.h"
#include "workloads/workloads.h"

// Active sanitizer configuration, stamped in by CMake from TFI_SANITIZE so
// campaign records always say which instrumentation produced them.
#ifndef TFI_SANITIZE_NAME
#define TFI_SANITIZE_NAME "off"
#endif

namespace tfsim {
namespace {

using Args = std::vector<std::string>;  // a subcommand's positional arguments

// Opens `path` for writing, throwing on failure.
std::ofstream OpenExport(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  return out;
}

// Writes an export with write(stream): nothing for an empty path, stdout
// for "-", else the file `path`, noted on stderr as `what`.
template <typename Write>
void Export(const std::string& path, const std::string& what, Write write) {
  if (path.empty()) return;
  if (path == "-") return write(std::cout);
  std::ofstream out = OpenExport(path);
  write(out);
  std::fprintf(stderr, "wrote %s to %s\n", what.c_str(), path.c_str());
}

// Loads a program: a workload name from the suite, or a .s assembly file.
Program LoadProgram(const std::string& what, std::uint64_t iters) {
  if (what.size() > 2 && what.substr(what.size() - 2) == ".s")
    return Assemble(ReadFile(what));
  return BuildWorkload(WorkloadByName(what), iters);
}

// The positional arguments, or every workload name when there are none.
Args OrAllWorkloads(Args names) {
  if (names.empty())
    for (const auto& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

// --- run, exec -------------------------------------------------------------

struct RunFlags {
  std::int64_t cycles = 200000;
  std::int64_t iters = static_cast<std::int64_t>(kCampaignIters);
  std::int64_t trace = 0;
  bool check = false;
  void Bind(ArgParser& p) {
    p.AddInt("cycles", &cycles, "pipeline cycles to run per program");
    p.AddInt("iters", &iters,
             "workload iterations (default: the campaign build)");
    p.AddInt("trace", &trace, "dump the last N pipeline cycles");
    p.AddFlag("check", &check, "run with the per-cycle invariant checker");
  }
};

int CmdRun(const RunFlags& f, const Args& args) {
  CoreConfig cfg;
  cfg.check_invariants = f.check;
  int failures = 0;
  for (const std::string& what : OrAllWorkloads(args)) {
    check::Lockstep ls(cfg,
                       LoadProgram(what, static_cast<std::uint64_t>(f.iters)),
                       check::kDeadlockCycles);
    for (std::int64_t c = 0; c < f.cycles; ++c) {
      if (f.trace > 0 && c >= f.cycles - f.trace)
        ls.core().DumpPipeline(std::cout);
      if (!ls.Step()) break;
    }
    const Core& core = ls.core();
    const CoreStats& st = core.stats();
    std::printf(
        "[%-7s] %s: cycles=%llu retired=%llu IPC=%.2f bp=%.1f%% "
        "d$miss=%llu mispredicts=%llu flushes=%llu replays=%llu "
        "order-violations=%llu%s\n",
        what.c_str(), ls.ok() ? "OK" : "FAIL", (unsigned long long)st.cycles,
        (unsigned long long)st.retired, st.Ipc(),
        st.branches
            ? 100.0 * (1.0 - (double)st.mispredicts / (double)st.branches)
            : 0.0,
        (unsigned long long)st.dcache_misses,
        (unsigned long long)st.mispredicts,
        (unsigned long long)st.full_flushes, (unsigned long long)st.replays,
        (unsigned long long)st.order_violations,
        ls.exited() ? " [exited]" : "");
    if (!ls.ok()) {
      std::printf("  %s\n", ls.Failure().c_str());
      ++failures;
    }
    if (!core.output().empty()) {
      std::printf("  output (%zu bytes):", core.output().size());
      for (std::size_t i = 0; i < core.output().size() && i < 32; ++i)
        std::printf(" %02x", core.output()[i]);
      std::printf("\n");
    }
  }
  return failures;
}

struct ExecFlags {
  std::int64_t iters = 4;
  void Bind(ArgParser& p) { p.AddInt("iters", &iters, "workload iterations"); }
};

int CmdExec(const ExecFlags& f, const Args& args) {
  const Program prog =
      LoadProgram(args[0], static_cast<std::uint64_t>(f.iters));
  FunctionalSim sim(prog);
  sim.Run(1ULL << 33);
  std::printf("instructions=%llu %s exit=%llu output=%zu bytes\n",
              (unsigned long long)sim.InsnCount(),
              sim.state().exited ? "[exited]"
                                 : ExceptionName(sim.pending_exception()),
              (unsigned long long)sim.state().exit_code,
              sim.state().output.size());
  return sim.state().exited ? 0 : 1;
}

// --- campaign, sweep -------------------------------------------------------

// What to inject and how to run the trials: the flags campaign and sweep
// share.
struct InjectFlags {
  std::int64_t trials = 300;
  std::int64_t flips = 1;
  std::int64_t jobs = 1;
  // 0 = the GoldenSpec default. GoldenSpec::window is the single source of
  // truth downstream (trial classification, fast-path planning, cache key).
  std::int64_t window = 0;
  bool latches_only = false;
  bool protect = false;
  bool adjacent = false;
  bool no_fast_path = false;
  bool progress = false;
  bool check = false;

  void Bind(ArgParser& p) {
    p.AddInt("trials", &trials, "injection trials");
    p.AddFlag("latches-only", &latches_only, "inject latches only, not RAMs");
    p.AddFlag("protect", &protect,
              "enable the Section 4 protection mechanisms");
    p.AddInt("flips", &flips, "bits flipped per trial");
    p.AddFlag("adjacent", &adjacent, "extra flips hit adjacent bits");
    p.AddInt("jobs", &jobs,
             "trial-loop worker threads; 0 = all hardware threads");
    p.AddInt("window", &window,
             "trial observation window in cycles; 0 = default 10000 (part "
             "of the results-cache key)");
    p.AddFlag("no-fast-path", &no_fast_path,
              "replay every trial from its checkpoint instead");
    p.AddFlag("progress", &progress, "periodic trials/sec progress lines");
    p.AddFlag("check", &check,
              "run trials with the per-cycle invariant checker; violations "
              "quarantine the trial (bypasses the results cache)");
  }

  CampaignOptions Options() const {
    CampaignOptions opt;
    opt.jobs = static_cast<int>(jobs);
    opt.obs.progress = progress;
    opt.check_invariants = check;
    opt.fast_path = !no_fast_path;
    return opt;
  }
};

struct CampaignFlags : InjectFlags {
  std::string metrics_json;
  std::string prop_trace;
  std::string chrome_trace;
  std::string events_jsonl;
  std::string heatmap_json;
  std::string heatmap_csv;

  void Bind(ArgParser& p) {
    InjectFlags::Bind(p);
    p.AddStr("metrics-json", &metrics_json, "metrics registry export path");
    p.AddStr("prop-trace", &prop_trace, "propagation-trace JSONL path");
    p.AddStr("chrome-trace", &chrome_trace,
             "chrome trace-event export path");
    p.AddStr("events-jsonl", &events_jsonl,
             "structured campaign event journal path (JSONL)");
    p.AddStr("heatmap-json", &heatmap_json,
             "per-field vulnerability heatmap JSON path");
    p.AddStr("heatmap-csv", &heatmap_csv,
             "per-field vulnerability heatmap CSV path");
  }
};

int CmdCampaign(const CampaignFlags& f, const Args& args) {
  CampaignSpec spec;
  spec.workload = args[0];
  spec.trials = static_cast<int>(f.trials);
  spec.include_ram = !f.latches_only;
  spec.flips = static_cast<int>(f.flips);
  spec.adjacent = f.adjacent;
  if (f.protect) spec.core.protect = ProtectionConfig::All();
  if (f.window > 0) spec.golden.window = static_cast<std::uint64_t>(f.window);

  // Observability: attach only the sinks whose export files were requested.
  obs::MetricsRegistry metrics;
  obs::ChromeTraceWriter chrome;
  CampaignOptions opt = f.Options();
  if (!f.metrics_json.empty()) opt.obs.sinks.metrics = &metrics;
  if (!f.chrome_trace.empty()) opt.obs.sinks.chrome = &chrome;
  opt.obs.collect_prop_traces = !f.prop_trace.empty();

  // Event journal feeding the JSONL file sink (--progress attaches its own
  // consumer inside the campaign).
  obs::EventJournal journal;
  std::ofstream events_out;
  std::optional<obs::JsonlEventSink> events_sink;
  if (!f.events_jsonl.empty()) {
    opt.obs.events = &journal;
    events_out = OpenExport(f.events_jsonl);
    events_sink.emplace(events_out);
    journal.AddSink(&*events_sink);
  }

  const CampaignResult r = RunCampaign(spec, opt);

  // Every emitted event reached the file before RunCampaign returned.
  if (events_sink) {
    journal.RemoveSink(&*events_sink);
    std::fprintf(stderr, "wrote %llu events to %s\n",
                 (unsigned long long)journal.emitted(), f.events_jsonl.c_str());
  }

  if (!f.heatmap_json.empty() || !f.heatmap_csv.empty()) {
    const obs::VulnerabilityHeatmap hm = BuildHeatmap(r);
    Export(f.heatmap_json,
           "heatmap (" + std::to_string(hm.cells().size()) + " fields)",
           [&](std::ostream& out) { hm.WriteJson(out, spec.workload); });
    Export(f.heatmap_csv, "heatmap CSV",
           [&](std::ostream& out) { hm.WriteCsv(out); });
  }
  Export(f.metrics_json, "metrics",
         [&](std::ostream& out) { metrics.WriteJson(out); });
  Export(f.prop_trace,
         std::to_string(r.prop_traces.size()) + " propagation traces",
         [&](std::ostream& out) { WritePropTraceJsonl(r, out); });
  Export(f.chrome_trace,
         "chrome trace (open in https://ui.perfetto.dev or chrome://tracing)",
         [&](std::ostream& out) { chrome.WriteTo(out); });

  const auto o = r.ByOutcome();
  const double n = static_cast<double>(r.trials.size());
  std::printf("workload=%s trials=%zu ipc=%.2f sanitizer=%s\n",
              spec.workload.c_str(), r.trials.size(), r.golden_ipc,
              TFI_SANITIZE_NAME);
  for (int i = 0; i < kNumOutcomes; ++i)
    if (o[i] || static_cast<Outcome>(i) != Outcome::kTrialError)
      std::printf("  %-12s %5.1f%%\n", OutcomeName(static_cast<Outcome>(i)),
                  n > 0 ? 100.0 * o[i] / n : 0.0);
  const auto m = r.ByFailureMode();
  for (int i = 1; i < kNumFailureModes; ++i)
    if (m[i])
      std::printf("    %-8s %llu\n", FailureModeName(static_cast<FailureMode>(i)),
                  (unsigned long long)m[i]);
  for (const auto& q : r.quarantined)
    std::fprintf(stderr, "  quarantined trial %llu: %s\n",
                 (unsigned long long)q.index, q.message.c_str());
  return 0;
}

struct SweepFlags : InjectFlags {
  std::string suite = "default";
  std::string axis;
  std::string sweep_json;
  std::string sweep_csv;
  bool json = false;

  void Bind(ArgParser& p) {
    InjectFlags::Bind(p);
    p.AddStr("suite", &suite,
             "geometry suite: default (all axes) or smoke (3 points)");
    p.AddStr("axis", &axis,
             "restrict the sweep to one axis: rob, sched, lsq, pregs, width");
    p.AddStr("sweep-json", &sweep_json,
             "vulnerability-vs-utilization curves JSON path; '-' = stdout");
    p.AddStr("sweep-csv", &sweep_csv,
             "per-point per-structure CSV path; '-' = stdout");
    p.AddFlag("json", &json, "sweep curves JSON on stdout");
  }
};

// tfi sweep [workload] — geometry sensitivity sweep. Expands --suite
// (optionally restricted to --axis) into per-point campaigns run through the
// ordinary machinery, so the per-point results cache (a rerun skips the
// points already cached) and byte-identical records at any --jobs value
// carry over. The exports
// join per-structure failure rates with golden-run occupancy into
// vulnerability-vs-utilization curves.
int CmdSweep(const SweepFlags& f, const Args& args) {
  SweepSpec spec;
  if (!args.empty()) spec.workload = args[0];
  spec.suite = f.suite;
  spec.trials = static_cast<int>(f.trials);
  spec.include_ram = !f.latches_only;
  spec.flips = static_cast<int>(f.flips);
  spec.adjacent = f.adjacent;
  if (f.protect) spec.base.protect = ProtectionConfig::All();
  if (f.window > 0) spec.golden.window = static_cast<std::uint64_t>(f.window);

  const SweepResult r = RunSweep(spec, f.axis, f.Options());

  const std::string json =
      f.json && f.sweep_json.empty() ? std::string("-") : f.sweep_json;
  Export(json, "sweep curves (" + std::to_string(r.points.size()) + " points)",
         [&](std::ostream& out) { WriteSweepJson(r, out); });
  Export(f.sweep_csv, "sweep CSV",
         [&](std::ostream& out) { WriteSweepCsv(r, out); });
  if (json.empty() && f.sweep_csv.empty()) {
    std::printf("suite=%s%s%s workload=%s trials/point=%d sanitizer=%s\n",
                spec.suite.c_str(), f.axis.empty() ? "" : " axis=",
                f.axis.c_str(), spec.workload.c_str(), spec.trials,
                TFI_SANITIZE_NAME);
    for (const SweepPointResult& p : r.points) {
      std::printf("  %-10s ipc=%.2f failures=%5.1f%%%s\n",
                  p.point.label.c_str(), p.golden_ipc, 100.0 * p.failure_rate,
                  p.from_cache ? "  (cached)" : "");
      for (const StructureCell& c : p.structures)
        if (c.utilization >= 0.0)
          std::printf("    %-6s util=%5.1f%% vuln=%5.1f%% trials=%llu\n",
                      c.structure.c_str(), 100.0 * c.utilization,
                      100.0 * c.vulnerability, (unsigned long long)c.trials);
    }
  }
  return 0;
}

// --- soft, figures ---------------------------------------------------------

struct SoftFlags {
  std::int64_t trials = 300;
  std::int64_t iters = 8;
  void Bind(ArgParser& p) {
    p.AddInt("trials", &trials, "Section 5 trials");
    p.AddInt("iters", &iters, "workload iterations");
  }
};

int CmdSoft(const SoftFlags& f, const Args& args) {
  SoftCampaignSpec spec;
  spec.workload = args[0];
  spec.trials = static_cast<int>(f.trials);
  spec.iters = static_cast<std::uint64_t>(f.iters);
  const std::string& model = args[1];
  bool found = false;
  for (int m = 0; m < kNumSoftFaultModels; ++m) {
    if (model == SoftFaultModelName(static_cast<SoftFaultModel>(m))) {
      spec.model = static_cast<SoftFaultModel>(m);
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown model '%s'; options:", model.c_str());
    for (int m = 0; m < kNumSoftFaultModels; ++m)
      std::fprintf(stderr, " %s", SoftFaultModelName(static_cast<SoftFaultModel>(m)));
    std::fprintf(stderr, "\n");
    return 2;
  }
  const SoftCampaignResult r = RunSoftCampaign(spec);
  for (int o = 0; o < kNumSoftOutcomes; ++o)
    std::printf("  %-11s %5.1f%%\n", SoftOutcomeName(static_cast<SoftOutcome>(o)),
                100.0 * r.Rate(static_cast<SoftOutcome>(o)).value);
  return 0;
}

struct FiguresFlags {
  std::int64_t trials = FigureOptions{}.trials;
  std::int64_t points = FigureOptions{}.points;
  std::int64_t soft_trials = FigureOptions{}.soft_trials;
  std::int64_t jobs = FigureOptions{}.jobs;
  bool progress = false;
  std::string metrics_json;
  void Bind(ArgParser& p) {
    p.AddInt("trials", &trials, "injection trials per workload");
    p.AddInt("points", &points, "checkpoints (start points) per golden run");
    p.AddInt("soft-trials", &soft_trials,
             "Section 5 trials per workload per fault model");
    p.AddInt("jobs", &jobs,
             "trial-loop worker threads; 0 = all hardware threads");
    p.AddFlag("progress", &progress, "per-campaign progress lines");
    p.AddStr("metrics-json", &metrics_json, "metrics registry export path");
  }
};

int CmdFigures(const FiguresFlags& f, const Args& args) {
  FigureOptions o;
  o.trials = static_cast<int>(f.trials);
  o.points = static_cast<int>(f.points);
  o.soft_trials = static_cast<int>(f.soft_trials);
  o.jobs = static_cast<int>(f.jobs);
  o.progress = f.progress;
  o.metrics_json = f.metrics_json;
  return RunFigures(args, o);
}

// --- inventory, asmlint, statelint -----------------------------------------

struct InventoryFlags {
  bool protect = false;
  bool json = false;
  bool coverage = false;
  bool check = false;
  bool write_baseline = false;
  std::string baseline;
  void Bind(ArgParser& p) {
    p.AddFlag("protect", &protect,
              "enable the Section 4 protection mechanisms");
    p.AddFlag("json", &json, "emit the canonical audit JSON");
    p.AddFlag("coverage", &coverage,
              "per-mechanism protection coverage table");
    p.AddFlag("check", &check,
              "compare against --baseline and fail on drift");
    p.AddStr("baseline", &baseline,
             "pinned inventory JSON for --check/--write-baseline");
    p.AddFlag("write-baseline", &write_baseline,
              "regenerate the pinned --baseline file");
  }
};

int CmdInventory(const InventoryFlags& f, const Args&) {
  // Audit modes work on the canonical JSON (deterministic byte-for-byte, so
  // it can be pinned as tools/inventory_baseline.json and diffed in review).
  if (f.json || f.check || f.write_baseline) {
    const std::string json = analyze::BuildInventoryJsonFromCores();
    if (f.json) std::fputs(json.c_str(), stdout);
    if (f.write_baseline) {
      if (f.baseline.empty())
        throw std::runtime_error("--write-baseline needs --baseline FILE");
      auto out = OpenExport(f.baseline);
      out << json;
      std::fprintf(stderr, "wrote inventory baseline to %s\n",
                   f.baseline.c_str());
    }
    if (f.check) {
      if (f.baseline.empty())
        throw std::runtime_error("inventory --check needs --baseline FILE");
      std::string message;
      if (!analyze::CheckInventoryBaseline(json, ReadFile(f.baseline),
                                           &message)) {
        std::fprintf(stderr, "tfi inventory: %s\n", message.c_str());
        return 1;
      }
      std::printf("inventory matches %s\n", f.baseline.c_str());
    }
    return 0;
  }
  CoreConfig cfg;
  if (f.protect) cfg.protect = ProtectionConfig::All();
  Core core(cfg, BuildWorkload(AllWorkloads()[0], kCampaignIters));
  if (f.coverage) {
    if (!f.protect)
      std::fprintf(stderr,
                   "note: --coverage without --protect shows what the "
                   "mechanisms would leave uncovered in this build\n");
    std::printf("%-16s %10s %10s %10s\n", "mechanism", "covered", "uncovered",
                "check bits");
    for (const auto& m :
         analyze::ComputeProtectionCoverage(core.registry().Fields())) {
      std::printf("%-16s %10llu %10llu %10llu\n", m.mechanism.c_str(),
                  (unsigned long long)m.covered_bits,
                  (unsigned long long)m.uncovered_bits,
                  (unsigned long long)m.check_bits);
      for (const auto& u : m.uncovered_fields)
        std::printf("  uncovered: %s\n", u.c_str());
    }
    return 0;
  }
  std::printf("%-14s %10s %10s\n", "category", "latch bits", "RAM bits");
  std::uint64_t lt = 0, rt = 0;
  for (int c = 0; c < kNumStateCats; ++c) {
    const auto inv = core.registry().Inventory(static_cast<StateCat>(c));
    if (inv.latch_bits + inv.ram_bits == 0) continue;
    lt += inv.latch_bits;
    rt += inv.ram_bits;
    std::printf("%-14s %10llu %10llu\n",
                StateCatName(static_cast<StateCat>(c)),
                (unsigned long long)inv.latch_bits,
                (unsigned long long)inv.ram_bits);
  }
  std::printf("%-14s %10llu %10llu\n", "total", (unsigned long long)lt,
              (unsigned long long)rt);
  return 0;
}

// Reads an allowlist of audited exceptions (analyze/statelint.h).
std::vector<analyze::AllowEntry> LoadAllowlist(const std::string& path) {
  std::vector<analyze::AllowEntry> allow;
  std::string error;
  if (!path.empty() &&
      !analyze::ParseAllowlist(ReadFile(path), &allow, &error))
    throw std::runtime_error(error);
  return allow;
}

struct AsmlintFlags {
  std::string allow;
  std::string harden;
  bool dump = false;
  void Bind(ArgParser& p) {
    p.AddStr("allow", &allow, "allowlist of audited exceptions");
    p.AddStr("harden", &harden,
             "also verify the hardened variant: cfc, dup or full");
    p.AddFlag("dump", &dump, "print each unit's lifted disassembly");
  }
};

// `tfi asmlint`: the static program lint, sharing LoadProgram's
// workload-or-.s-file convention. Exit code = number of findings.
int CmdAsmlint(const AsmlintFlags& f, const Args& args) {
  const Args units = OrAllWorkloads(args);
  std::vector<analyze::AllowEntry> allow = LoadAllowlist(f.allow);

  std::optional<HardenMode> mode;
  if (!f.harden.empty()) {
    if (f.harden == "cfc") mode = HardenMode::kCfc;
    else if (f.harden == "dup") mode = HardenMode::kDup;
    else if (f.harden == "full") mode = HardenMode::kFull;
    else throw std::runtime_error("unknown --harden mode: " + f.harden);
  }

  std::size_t total = 0;
  for (const std::string& u : units) {
    const std::size_t slash = u.find_last_of('/');
    const std::string unit =
        slash == std::string::npos ? u : u.substr(slash + 1);
    const Program prog = LoadProgram(u, kCampaignIters);
    if (f.dump) std::fputs(analyze::DisassembleProgram(prog).c_str(), stdout);
    analyze::AsmLintOptions opt;
    opt.unit = unit;
    std::vector<analyze::AsmFinding> findings =
        analyze::RunAsmLint(analyze::Lift(prog), allow, opt);
    if (mode) {
      const HardenedProgram hp = Harden(prog, *mode);
      const auto hf = VerifyHardened(prog, hp.program, *mode,
                                     unit + "+" + HardenModeName(*mode));
      findings.insert(findings.end(), hf.begin(), hf.end());
    }
    for (const auto& finding : findings)
      std::fprintf(stderr, "%s\n", finding.Format().c_str());
    total += findings.size();
  }
  const auto unused = analyze::UnusedAllowFindings(allow);
  for (const auto& finding : unused)
    std::fprintf(stderr, "%s\n", finding.Format().c_str());
  total += unused.size();
  if (total == 0)
    std::printf("asmlint: %zu unit(s) verified\n", units.size());
  else
    std::fprintf(stderr, "asmlint: %zu finding(s)\n", total);
  return static_cast<int>(total);
}

struct StatelintFlags {
  std::string src;
  std::string allow;
  bool no_runtime = false;
  bool list = false;
  void Bind(ArgParser& p) {
    p.AddStr("src", &src, "directory of pipeline sources to lint (required)");
    p.AddStr("allow", &allow, "allowlist of audited exceptions");
    p.AddFlag("no-runtime", &no_runtime,
              "skip the live-registry cross-check (pure static run)");
    p.AddFlag("list", &list, "dump the extracted classes and allocations");
  }
};

void ListCppModel(const analyze::CppModel& model) {
  for (const analyze::CppClass& c : model.classes) {
    std::printf("class %s (%s:%d)%s\n", c.name.c_str(), c.file.c_str(), c.line,
                c.registry_ctor ? " [registry ctor]" : "");
    for (const analyze::CppMember& m : c.members)
      std::printf("  %-24s %s%s%s%s\n", m.name.c_str(), m.type.c_str(),
                  m.is_state_field ? " [field]" : "",
                  m.is_static ? " [static]" : "",
                  m.is_const ? " [const]" : "");
  }
  for (const analyze::CppAllocation& a : model.allocations)
    std::printf("alloc %-28s %s.%s cat=%s storage=%s count=%s width=%s\n",
                (a.name_is_suffix ? "*" + a.reg_name : a.reg_name).c_str(),
                a.class_name.c_str(), a.member.c_str(), a.cat.c_str(),
                a.storage.c_str(), a.count_expr.c_str(), a.width_expr.c_str());
}

// `tfi statelint`: every mutable member of a registry-backed class under
// --src must be a registered StateField or an audited allowlist exception;
// registered fields must be read back and sanely classified. Exit code =
// number of findings; 2 when the run itself cannot be made.
int CmdStatelint(const StatelintFlags& f, const Args&) {
  if (f.src.empty()) {
    std::fprintf(stderr, "tfi statelint: --src DIR is required\n");
    return 2;
  }
  try {
    std::vector<std::string> sources;
    for (const auto& entry : std::filesystem::directory_iterator(f.src)) {
      const std::string ext = entry.path().extension().string();
      if (entry.is_regular_file() &&
          (ext == ".h" || ext == ".cpp" || ext == ".cc" || ext == ".hpp"))
        sources.push_back(entry.path().string());
    }
    std::sort(sources.begin(), sources.end());
    if (sources.empty()) {
      std::fprintf(stderr, "statelint: no sources under %s\n", f.src.c_str());
      return 2;
    }
    const analyze::CppModel model = analyze::ParseCppFiles(sources);
    std::vector<analyze::AllowEntry> allow = LoadAllowlist(f.allow);
    if (f.list) ListCppModel(model);

    analyze::LintOptions opt;
    std::vector<StateRegistry::FieldInfo> runtime;
    if (!f.no_runtime) {
      // Fully-protected configuration so conditionally-allocated fields
      // (parity, ECC, timeout counter) are present for the cross-check.
      CoreConfig cfg;
      cfg.protect = ProtectionConfig::All();
      const Core core(cfg, Program{});
      runtime = core.registry().Fields();
      opt.runtime_fields = &runtime;
    }

    const std::vector<analyze::Finding> findings =
        analyze::RunStateLint(model, allow, opt);
    for (const analyze::Finding& finding : findings)
      std::fprintf(stderr, "%s\n", finding.Format().c_str());
    if (findings.empty())
      std::printf(
          "statelint: %zu classes, %zu allocations, %zu allowlisted "
          "exceptions — injection surface verified\n",
          model.classes.size(), model.allocations.size(), allow.size());
    else
      std::fprintf(stderr, "statelint: %zu finding(s)\n", findings.size());
    return static_cast<int>(findings.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statelint: %s\n", e.what());
    return 2;
  }
}

// --- fuzz ------------------------------------------------------------------

struct FuzzFlags {
  std::int64_t seeds = 25;
  std::int64_t seed_base = 0;
  std::int64_t cycles = check::FuzzRunOptions{}.cycles;
  std::string shape;
  // Core geometry overrides (0 = keep the CoreConfig default), so the
  // differential fuzzer exercises non-default shapes too.
  std::int64_t rob = 0, sched = 0, lq = 0, sq = 0, pregs = 0;
  bool no_check = false;
  bool no_shrink = false;
  bool print = false;
  bool quiet = false;
  void Bind(ArgParser& p) {
    p.AddInt("seeds", &seeds, "seeds per shape");
    p.AddInt("seed-base", &seed_base, "first seed value");
    p.AddInt("cycles", &cycles, "lockstep cycles per case");
    p.AddStr("shape", &shape, "only this shape (mixed|alu|store|branch|mem)");
    p.AddInt("rob", &rob, "ROB entries (0 = default)");
    p.AddInt("sched", &sched, "scheduler entries (0 = default)");
    p.AddInt("lq", &lq, "load-queue entries (0 = default)");
    p.AddInt("sq", &sq, "store-queue entries (0 = default)");
    p.AddInt("pregs", &pregs, "physical registers (0 = default)");
    p.AddFlag("no-check", &no_check, "disable the invariant checker");
    p.AddFlag("no-shrink", &no_shrink, "skip shrinking failing cases");
    p.AddFlag("print", &print, "echo each generated program");
    p.AddFlag("quiet", &quiet, "only report failures and the final tally");
  }
};

// `tfi fuzz`: generates --seeds random trap-free programs per shape, runs
// each in lockstep with the invariant checker on, and greedily shrinks any
// failing case before printing it. Exit code = number of failing cases.
int CmdFuzz(const FuzzFlags& f, const Args&) {
  std::vector<check::FuzzShape> shapes;
  if (f.shape.empty()) {
    shapes = check::AllFuzzShapes();
  } else if (const auto sh = check::FuzzShapeFromName(f.shape)) {
    shapes = {*sh};
  } else {
    std::fprintf(stderr, "unknown --shape '%s' (mixed|alu|store|branch|mem)\n",
                 f.shape.c_str());
    return 2;
  }

  check::FuzzRunOptions opt;
  opt.cycles = static_cast<std::uint64_t>(f.cycles);
  CoreConfig& geo = opt.core;
  geo.check_invariants = !f.no_check;
  if (f.rob > 0) geo.rob_entries = static_cast<int>(f.rob);
  if (f.sched > 0) geo.sched_entries = static_cast<int>(f.sched);
  if (f.lq > 0) geo.lq_entries = static_cast<int>(f.lq);
  if (f.sq > 0) geo.sq_entries = static_cast<int>(f.sq);
  if (f.pregs > 0) geo.phys_regs = static_cast<int>(f.pregs);
  if (const std::vector<ConfigIssue> issues = geo.Validate();
      !issues.empty()) {
    for (const ConfigIssue& i : issues)
      std::fprintf(stderr, "fuzz: invalid geometry: %s: %s\n",
                   i.field.c_str(), i.message.c_str());
    return 2;
  }

  int failures = 0;
  std::uint64_t total_retired = 0;
  int cases = 0;
  const std::int64_t seeds = std::max<std::int64_t>(f.seeds, 1);
  for (const check::FuzzShape sh : shapes) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      const long long label = static_cast<long long>(f.seed_base + s);
      const std::uint64_t seed =
          static_cast<std::uint64_t>(label) * 0x9E3779B97F4A7C15ULL + 17;
      const check::FuzzProgram prog = check::GenerateFuzzProgram(seed, sh);
      if (f.print)
        std::printf("--- shape=%s seed=%lld ---\n%s\n",
                    check::FuzzShapeName(sh), label, prog.Source().c_str());
      const check::FuzzCaseResult r = check::RunLockstep(prog.Source(), opt);
      ++cases;
      total_retired += r.retired;
      if (r.ok) {
        if (!f.quiet)
          std::printf("[%-6s seed %4lld] ok: %llu retires compared\n",
                      check::FuzzShapeName(sh), label,
                      (unsigned long long)r.retired);
        continue;
      }
      ++failures;
      std::printf("[%-6s seed %4lld] FAIL: %s\n", check::FuzzShapeName(sh),
                  label, r.failure.c_str());
      if (!f.no_shrink) {
        const check::ShrinkResult sr = check::ShrinkFailure(prog, opt);
        const auto kept =
            std::count(sr.enabled.begin(), sr.enabled.end(), true);
        std::printf(
            "  shrunk to %zu/%zu blocks in %d runs; failure: %s\n"
            "--- shrunk reproducer ---\n%s-------------------------\n",
            static_cast<std::size_t>(kept), sr.enabled.size(), sr.runs,
            sr.failure.c_str(), sr.source.c_str());
      }
    }
  }
  std::printf("fuzz: %d/%d cases failed, %llu retires compared%s\n", failures,
              cases, (unsigned long long)total_retired,
              f.no_check ? " (invariant checker off)" : "");
  return failures;
}

// --- workloads, version ----------------------------------------------------

struct NoFlags {
  void Bind(ArgParser&) {}
};

int CmdWorkloads(const NoFlags&, const Args&) {
  for (const auto& w : AllWorkloads())
    std::printf("%-8s %s\n", w.name.c_str(), w.description.c_str());
  return 0;
}

int CmdVersion(const NoFlags&, const Args&) {
  std::printf("tfi (transient-fault-injection toolkit)\n");
  std::printf("  sanitizer: %s\n", TFI_SANITIZE_NAME);
#ifdef NDEBUG
  std::printf("  assertions: off\n");
#else
  std::printf("  assertions: on\n");
#endif
  return 0;
}

// --- the subcommand table ----------------------------------------------------

struct Subcommand {
  const char* name;
  const char* args;  // positional-argument synopsis
  int min_args;
  int max_args;  // -1 = any number
  int (*main)(const Subcommand& self, int argc, char** argv);
};

// Parses argv[2..] against the flags Flags binds, checks the positional
// count, and runs Cmd; a usage error prints this subcommand's flags and
// returns 2.
template <typename Flags, int (*Cmd)(const Flags&, const Args&)>
int Dispatch(const Subcommand& self, int argc, char** argv) {
  Flags flags;
  ArgParser p;
  flags.Bind(p);
  std::string error;
  if (!p.Parse(argc, argv, /*begin=*/2))
    error = p.error();
  else if (const int n = static_cast<int>(p.positional().size());
           n < self.min_args || (self.max_args >= 0 && n > self.max_args))
    error = "wrong number of arguments";
  if (!error.empty()) {
    std::fprintf(stderr, "tfi %s: %s\nusage: tfi %s %s\n%s", self.name,
                 error.c_str(), self.name, self.args, p.Help().c_str());
    return 2;
  }
  try {
    return Cmd(flags, p.positional());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tfi: %s\n", e.what());
    return 1;
  }
}

constexpr Subcommand kSubcommands[] = {
    {"run", "[workload|file.s ...] [flags]", 0, -1, Dispatch<RunFlags, CmdRun>},
    {"exec", "<workload|file.s> [flags]", 1, 1, Dispatch<ExecFlags, CmdExec>},
    {"campaign", "<workload> [flags]", 1, 1,
     Dispatch<CampaignFlags, CmdCampaign>},
    {"sweep", "[workload] [flags]", 0, 1, Dispatch<SweepFlags, CmdSweep>},
    {"soft", "<workload> <model> [flags]", 2, 2, Dispatch<SoftFlags, CmdSoft>},
    {"figures", "[name ...] [flags]", 0, -1,
     Dispatch<FiguresFlags, CmdFigures>},
    {"inventory", "[flags]", 0, 0, Dispatch<InventoryFlags, CmdInventory>},
    {"asmlint", "[unit|file.s ...] [flags]", 0, -1,
     Dispatch<AsmlintFlags, CmdAsmlint>},
    {"statelint", "--src DIR [flags]", 0, 0,
     Dispatch<StatelintFlags, CmdStatelint>},
    {"fuzz", "[flags]", 0, 0, Dispatch<FuzzFlags, CmdFuzz>},
    {"workloads", "", 0, 0, Dispatch<NoFlags, CmdWorkloads>},
    {"version", "", 0, 0, Dispatch<NoFlags, CmdVersion>},
};

int Usage() {
  std::fprintf(stderr, "usage: tfi <subcommand> ...\n");
  for (const Subcommand& s : kSubcommands)
    std::fprintf(stderr, "  tfi %s%s%s\n", s.name, *s.args ? " " : "", s.args);
  std::fprintf(stderr, "see the header of tools/tfi.cpp for details\n");
  return 2;
}

}  // namespace
}  // namespace tfsim

int main(int argc, char** argv) {
  using namespace tfsim;
  if (argc < 2) return Usage();
  const std::string cmd =
      std::strcmp(argv[1], "--version") == 0 ? "version" : argv[1];
  for (const Subcommand& s : kSubcommands)
    if (cmd == s.name) return s.main(s, argc, argv);
  std::fprintf(stderr, "tfi: unknown subcommand '%s'\n", cmd.c_str());
  return Usage();
}
