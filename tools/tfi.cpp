// tfi — command-line driver for the transient-fault-injection toolkit.
//
//   tfi run <workload|file.s> [--cycles N] [--trace N]   run on the pipeline
//   tfi exec <workload|file.s> [--iters N]               functional execution
//   tfi campaign <workload> [--trials N] [--latches-only] [--protect]
//                 [--flips N] [--adjacent] [--jobs N]    one injection campaign
//                 [--window N] (observation window in cycles; default 10000,
//                 env TFI_WINDOW; part of the results-cache key)
//                 [--no-fast-path] (the default fast path snapshots inject
//                 points and cuts off early convergence; results are
//                 byte-identical — --no-fast-path replays every trial from
//                 its golden checkpoint)
//       telemetry: [--metrics-json FILE] [--prop-trace FILE]
//                  [--chrome-trace FILE] [--progress]
//                  [--events-jsonl FILE] (structured campaign event journal)
//                  [--heatmap-json FILE] [--heatmap-csv FILE] (per-field
//                  vulnerability heatmap)
//
// Exit codes: 0 success; 1 error; 2 usage error. A campaign either
// completes (and lands in the results cache) or leaves nothing: an
// interrupted campaign reruns from its start. A trial that throws is
// quarantined after its one attempt, and a result holding a quarantined
// trial is not cached, so rerunning the campaign is the recovery.
//   tfi soft <workload> <model> [--trials N]             Section 5 campaign
//   tfi figures [name ...] [--trials N] [--points N]     the paper's tables
//       [--soft-trials N] [--jobs N] [--progress]        and figures (see
//       [--metrics-json FILE]                            tools/figures.cpp);
//       no name = table1 fig3 ... fig11; the extensions are ablation,
//       multibit, sensitivity and harden. Its --trials default is 500.
//   tfi inventory [--protect]                            Table 1 state listing
//       audit: [--json] [--coverage] [--check --baseline FILE]
//              [--write-baseline --baseline FILE]
//   tfi asmlint [unit|file.s ...] [--allow FILE]         static program lint
//       [--harden cfc|dup|full]  also statically verify the hardened variant
//       [--dump]  print each unit's lifted program as assembler-compatible
//                 text (round-trips through Assemble)
//       Exit code = number of findings (0 = programs verified).
//   tfi workloads                                        list the suite
//   tfi version                                          build configuration
//
// Unknown --flags are rejected with a usage error (they are never silently
// treated as positional workload names).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "figures.h"

#include "analyze/asm/asmlint.h"
#include "analyze/inventory.h"
#include "arch/functional_sim.h"
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
#include "util/env.h"
#include "workloads/workloads.h"

// Active sanitizer configuration, stamped in by CMake from TFI_SANITIZE so
// campaign records always say which instrumentation produced them.
#ifndef TFI_SANITIZE_NAME
#define TFI_SANITIZE_NAME "off"
#endif

namespace tfsim {
namespace {

struct Args {
  std::vector<std::string> positional;
  std::int64_t cycles = 200000;
  std::int64_t trials = 300;  // figures: FigureOptions' default (Parse)
  std::int64_t points = FigureOptions{}.points;
  std::int64_t soft_trials = FigureOptions{}.soft_trials;
  std::int64_t iters = 4;
  std::int64_t trace = 0;
  std::int64_t flips = 1;
  std::int64_t jobs = 1;
  std::int64_t window = 0;  // 0 = GoldenSpec default (or TFI_WINDOW)
  bool no_fast_path = false;
  bool latches_only = false;
  bool protect = false;
  bool adjacent = false;
  // Telemetry exports (campaign subcommand).
  std::string metrics_json;
  std::string prop_trace;
  std::string chrome_trace;
  std::string events_jsonl;
  std::string heatmap_json;
  std::string heatmap_csv;
  bool progress = false;
  bool check = false;
  // Geometry sweep (sweep subcommand).
  std::string suite = "default";
  std::string axis;
  std::string sweep_json;
  std::string sweep_csv;
  // Static program lint (asmlint subcommand).
  std::string allow;
  std::string harden;
  bool dump = false;
  // Inventory audit (inventory subcommand).
  bool json = false;
  bool coverage = false;
  bool write_baseline = false;
  std::string baseline;
  // Parse error: first unknown --flag, or a flag missing its value.
  std::string error;
};

ArgParser MakeParser(Args& a) {
  ArgParser p;
  p.AddInt("cycles", &a.cycles, "pipeline cycles to run (run)");
  p.AddInt("trials", &a.trials,
           "injection trials (campaign, soft; per workload: figures)");
  p.AddInt("points", &a.points,
           "checkpoints (start points) per golden run (figures)");
  p.AddInt("soft-trials", &a.soft_trials,
           "Section 5 trials per workload per fault model (figures)");
  p.AddInt("iters", &a.iters, "workload iterations (run, exec, soft)");
  p.AddInt("trace", &a.trace, "dump the last N pipeline cycles (run)");
  p.AddInt("flips", &a.flips, "bits flipped per trial (campaign)");
  p.AddInt("jobs", &a.jobs,
           "trial-loop worker threads; 0 = all hardware threads (campaign, "
           "sweep, figures)");
  p.AddInt("window", &a.window,
           "trial observation window in cycles; 0 = default 10000 or "
           "TFI_WINDOW (campaign; part of the results-cache key)");
  p.AddFlag("no-fast-path", &a.no_fast_path,
            "replay every trial from its checkpoint instead (campaign)");
  p.AddFlag("latches-only", &a.latches_only,
            "inject latches only, not RAMs (campaign)");
  p.AddFlag("protect", &a.protect,
            "enable the Section 4 protection mechanisms");
  p.AddFlag("adjacent", &a.adjacent,
            "extra flips hit adjacent bits (campaign)");
  p.AddStr("metrics-json", &a.metrics_json, "metrics registry export path");
  p.AddStr("prop-trace", &a.prop_trace, "propagation-trace JSONL path");
  p.AddStr("chrome-trace", &a.chrome_trace, "chrome trace-event export path");
  p.AddStr("events-jsonl", &a.events_jsonl,
           "structured campaign event journal path (JSONL)");
  p.AddStr("heatmap-json", &a.heatmap_json,
           "per-field vulnerability heatmap JSON path");
  p.AddStr("heatmap-csv", &a.heatmap_csv,
           "per-field vulnerability heatmap CSV path");
  p.AddFlag("progress", &a.progress, "periodic trials/sec progress lines");
  p.AddFlag("check", &a.check,
            "run trials with the per-cycle invariant checker; violations "
            "quarantine the trial (campaign; bypasses the results cache). "
            "With inventory: compare against --baseline and fail on drift");
  p.AddStr("suite", &a.suite,
           "geometry suite: default (all axes) or smoke (3 points) (sweep)");
  p.AddStr("axis", &a.axis,
           "restrict the sweep to one axis: rob, sched, lsq, pregs, width "
           "(sweep)");
  p.AddStr("sweep-json", &a.sweep_json,
           "vulnerability-vs-utilization curves JSON path; '-' = stdout "
           "(sweep)");
  p.AddStr("sweep-csv", &a.sweep_csv,
           "per-point per-structure CSV path; '-' = stdout (sweep)");
  p.AddStr("allow", &a.allow, "allowlist of audited exceptions (asmlint)");
  p.AddStr("harden", &a.harden,
           "also verify the hardened variant: cfc, dup or full (asmlint)");
  p.AddFlag("dump", &a.dump, "print each unit's lifted disassembly (asmlint)");
  p.AddFlag("json", &a.json,
            "emit the canonical audit JSON (inventory); sweep curves JSON "
            "on stdout (sweep)");
  p.AddFlag("coverage", &a.coverage,
            "per-mechanism protection coverage table (inventory)");
  p.AddStr("baseline", &a.baseline,
           "pinned inventory JSON for --check/--write-baseline (inventory)");
  p.AddFlag("write-baseline", &a.write_baseline,
            "regenerate the pinned --baseline file (inventory)");
  return p;
}

Args Parse(int argc, char** argv) {
  Args a;
  if (std::strcmp(argv[1], "figures") == 0) a.trials = FigureOptions{}.trials;
  ArgParser p = MakeParser(a);
  if (!p.Parse(argc, argv, /*begin=*/2))
    a.error = p.error();
  else
    a.positional = p.positional();
  return a;
}

// Opens `path` for writing, exiting with a diagnostic on failure.
std::ofstream OpenExport(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  return out;
}

// Loads a program: a workload name from the suite, or a .s assembly file.
Program LoadProgram(const std::string& what, std::uint64_t iters) {
  if (what.size() > 2 && what.substr(what.size() - 2) == ".s") {
    std::ifstream in(what);
    if (!in) throw std::runtime_error("cannot open " + what);
    std::ostringstream src;
    src << in.rdbuf();
    return Assemble(src.str());
  }
  return BuildWorkload(WorkloadByName(what), iters);
}

// `tfi asmlint`: the static program lint, sharing LoadProgram's
// workload-or-.s-file convention. Exit code = number of findings.
int CmdAsmlint(const Args& a) {
  std::vector<std::string> units = a.positional;
  if (units.empty())
    for (const auto& w : AllWorkloads()) units.push_back(w.name);

  std::vector<analyze::AllowEntry> allow;
  if (!a.allow.empty()) {
    std::ifstream in(a.allow);
    if (!in) throw std::runtime_error("cannot read " + a.allow);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string error;
    if (!analyze::ParseAllowlist(ss.str(), &allow, &error))
      throw std::runtime_error(error);
  }

  std::optional<HardenMode> mode;
  if (!a.harden.empty()) {
    if (a.harden == "cfc") mode = HardenMode::kCfc;
    else if (a.harden == "dup") mode = HardenMode::kDup;
    else if (a.harden == "full") mode = HardenMode::kFull;
    else throw std::runtime_error("unknown --harden mode: " + a.harden);
  }

  std::size_t total = 0;
  for (const std::string& u : units) {
    const std::size_t slash = u.find_last_of('/');
    const std::string unit =
        slash == std::string::npos ? u : u.substr(slash + 1);
    const Program prog = LoadProgram(u, kCampaignIters);
    if (a.dump) std::fputs(analyze::DisassembleProgram(prog).c_str(), stdout);
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
    for (const auto& f : findings)
      std::fprintf(stderr, "%s\n", f.Format().c_str());
    total += findings.size();
  }
  const auto unused = analyze::UnusedAllowFindings(allow);
  for (const auto& f : unused)
    std::fprintf(stderr, "%s\n", f.Format().c_str());
  total += unused.size();
  if (total == 0)
    std::printf("asmlint: %zu unit(s) verified\n", units.size());
  else
    std::fprintf(stderr, "asmlint: %zu finding(s)\n", total);
  return static_cast<int>(total);
}

int CmdWorkloads() {
  for (const auto& w : AllWorkloads())
    std::printf("%-8s %s\n", w.name.c_str(), w.description.c_str());
  return 0;
}

int CmdInventory(const Args& a) {
  // Audit modes work on the canonical JSON (deterministic byte-for-byte, so
  // it can be pinned as tools/inventory_baseline.json and diffed in review).
  if (a.json || a.check || a.write_baseline) {
    const std::string json = analyze::BuildInventoryJsonFromCores();
    if (a.json) std::fputs(json.c_str(), stdout);
    if (a.write_baseline) {
      if (a.baseline.empty())
        throw std::runtime_error("--write-baseline needs --baseline FILE");
      auto out = OpenExport(a.baseline);
      out << json;
      std::fprintf(stderr, "wrote inventory baseline to %s\n",
                   a.baseline.c_str());
    }
    if (a.check) {
      if (a.baseline.empty())
        throw std::runtime_error("inventory --check needs --baseline FILE");
      std::ifstream in(a.baseline);
      if (!in) throw std::runtime_error("cannot open " + a.baseline);
      std::ostringstream pinned;
      pinned << in.rdbuf();
      std::string message;
      if (!analyze::CheckInventoryBaseline(json, pinned.str(), &message)) {
        std::fprintf(stderr, "tfi inventory: %s\n", message.c_str());
        return 1;
      }
      std::printf("inventory matches %s\n", a.baseline.c_str());
    }
    return 0;
  }
  CoreConfig cfg;
  if (a.protect) cfg.protect = ProtectionConfig::All();
  Core core(cfg, BuildWorkload(AllWorkloads()[0], kCampaignIters));
  if (a.coverage) {
    if (!a.protect)
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
      for (const auto& f : m.uncovered_fields)
        std::printf("  uncovered: %s\n", f.c_str());
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

int CmdVersion() {
  std::printf("tfi (transient-fault-injection toolkit)\n");
  std::printf("  sanitizer: %s\n", TFI_SANITIZE_NAME);
#ifdef NDEBUG
  std::printf("  assertions: off\n");
#else
  std::printf("  assertions: on\n");
#endif
  return 0;
}

int CmdRun(const Args& a) {
  const Program prog = LoadProgram(a.positional.at(0), a.iters);
  Core core(CoreConfig{}, prog);
  for (std::int64_t c = 0; c < a.cycles && !core.exited(); ++c) {
    if (a.trace > 0 && c >= a.cycles - a.trace) core.DumpPipeline(std::cout);
    core.Cycle();
    if (core.halted_exception() != Exception::kNone) {
      std::printf("exception: %s\n", ExceptionName(core.halted_exception()));
      return 1;
    }
  }
  const auto& st = core.stats();
  std::printf(
      "cycles=%llu retired=%llu IPC=%.2f bp=%.1f%% d$miss=%llu "
      "mispredicts=%llu flushes=%llu%s\n",
      (unsigned long long)st.cycles, (unsigned long long)st.retired, st.Ipc(),
      st.branches ? 100.0 * (1.0 - (double)st.mispredicts / (double)st.branches) : 0.0,
      (unsigned long long)st.dcache_misses,
      (unsigned long long)st.mispredicts,
      (unsigned long long)st.full_flushes,
      core.exited() ? " [exited]" : "");
  if (!core.output().empty()) {
    std::printf("output (%zu bytes):", core.output().size());
    for (std::size_t i = 0; i < core.output().size() && i < 32; ++i)
      std::printf(" %02x", core.output()[i]);
    std::printf("\n");
  }
  return 0;
}

int CmdExec(const Args& a) {
  const Program prog = LoadProgram(a.positional.at(0), a.iters);
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

int CmdCampaign(const Args& a) {
  CampaignSpec spec;
  spec.workload = a.positional.at(0);
  spec.trials = static_cast<int>(a.trials);
  spec.include_ram = !a.latches_only;
  spec.flips = static_cast<int>(a.flips);
  spec.adjacent = a.adjacent;
  if (a.protect) spec.core.protect = ProtectionConfig::All();
  // Observation window: flag wins, then TFI_WINDOW, then the GoldenSpec
  // default. GoldenSpec::window is the single source of truth downstream
  // (trial classification, fast-path planning, the cache key).
  const std::int64_t window = a.window > 0 ? a.window : EnvInt("TFI_WINDOW", 0);
  if (window > 0) spec.golden.window = static_cast<std::uint64_t>(window);

  // Observability: attach only the sinks whose export files were requested.
  obs::MetricsRegistry metrics;
  obs::ChromeTraceWriter chrome;
  CampaignOptions opt;
  opt.jobs = static_cast<int>(a.jobs);
  if (!a.metrics_json.empty()) opt.obs.sinks.metrics = &metrics;
  if (!a.chrome_trace.empty()) opt.obs.sinks.chrome = &chrome;
  opt.obs.collect_prop_traces = !a.prop_trace.empty();
  opt.obs.progress = a.progress;
  opt.check_invariants = a.check;
  opt.fast_path = !a.no_fast_path;

  // Event journal feeding the JSONL file sink (--progress attaches its own
  // consumer inside the campaign).
  obs::EventJournal journal;
  std::ofstream events_out;
  std::optional<obs::JsonlEventSink> events_sink;
  if (!a.events_jsonl.empty()) {
    opt.obs.events = &journal;
    events_out = OpenExport(a.events_jsonl);
    events_sink.emplace(events_out);
    journal.AddSink(&*events_sink);
  }

  const CampaignResult r = RunCampaign(spec, opt);

  // Every emitted event reached the file before RunCampaign returned.
  if (events_sink) {
    journal.RemoveSink(&*events_sink);
    std::fprintf(stderr, "wrote %llu events to %s\n",
                 (unsigned long long)journal.emitted(), a.events_jsonl.c_str());
  }

  if (!a.heatmap_json.empty() || !a.heatmap_csv.empty()) {
    const obs::VulnerabilityHeatmap hm = BuildHeatmap(r);
    if (!a.heatmap_json.empty()) {
      auto out = OpenExport(a.heatmap_json);
      hm.WriteJson(out, spec.workload);
      std::fprintf(stderr, "wrote heatmap (%zu fields) to %s\n",
                   hm.cells().size(), a.heatmap_json.c_str());
    }
    if (!a.heatmap_csv.empty()) {
      auto out = OpenExport(a.heatmap_csv);
      hm.WriteCsv(out);
      std::fprintf(stderr, "wrote heatmap CSV to %s\n", a.heatmap_csv.c_str());
    }
  }

  if (!a.metrics_json.empty()) {
    auto out = OpenExport(a.metrics_json);
    metrics.WriteJson(out);
    std::fprintf(stderr, "wrote metrics to %s\n", a.metrics_json.c_str());
  }
  if (!a.prop_trace.empty()) {
    auto out = OpenExport(a.prop_trace);
    WritePropTraceJsonl(r, out);
    std::fprintf(stderr, "wrote %zu propagation traces to %s\n",
                 r.prop_traces.size(), a.prop_trace.c_str());
  }
  if (!a.chrome_trace.empty()) {
    auto out = OpenExport(a.chrome_trace);
    chrome.WriteTo(out);
    std::fprintf(stderr,
                 "wrote chrome trace to %s (open in https://ui.perfetto.dev "
                 "or chrome://tracing)\n",
                 a.chrome_trace.c_str());
  }

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

int CmdSoft(const Args& a) {
  SoftCampaignSpec spec;
  spec.workload = a.positional.at(0);
  spec.trials = static_cast<int>(a.trials);
  spec.iters = static_cast<std::uint64_t>(a.iters > 4 ? a.iters : 8);
  const std::string model = a.positional.at(1);
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

// tfi sweep [workload] — geometry sensitivity sweep. Expands --suite
// (optionally restricted to --axis) into per-point campaigns run through the
// ordinary machinery, so the per-point results cache (a rerun skips the
// points already cached) and byte-identical records at any --jobs value
// carry over. The exports
// join per-structure failure rates with golden-run occupancy into
// vulnerability-vs-utilization curves.
int CmdSweep(const Args& a) {
  SweepSpec spec;
  if (!a.positional.empty()) spec.workload = a.positional[0];
  spec.suite = a.suite;
  spec.trials = static_cast<int>(a.trials);
  spec.include_ram = !a.latches_only;
  spec.flips = static_cast<int>(a.flips);
  spec.adjacent = a.adjacent;
  if (a.protect) spec.base.protect = ProtectionConfig::All();
  const std::int64_t window = a.window > 0 ? a.window : EnvInt("TFI_WINDOW", 0);
  if (window > 0) spec.golden.window = static_cast<std::uint64_t>(window);

  CampaignOptions opt;
  opt.jobs = static_cast<int>(a.jobs);
  opt.obs.progress = a.progress;
  opt.check_invariants = a.check;
  opt.fast_path = !a.no_fast_path;

  const SweepResult r = RunSweep(spec, a.axis, opt);

  bool exported = false;
  if (!a.sweep_json.empty() || a.json) {
    if (a.sweep_json.empty() || a.sweep_json == "-") {
      WriteSweepJson(r, std::cout);
    } else {
      auto out = OpenExport(a.sweep_json);
      WriteSweepJson(r, out);
      std::fprintf(stderr, "wrote sweep curves (%zu points) to %s\n",
                   r.points.size(), a.sweep_json.c_str());
    }
    exported = true;
  }
  if (!a.sweep_csv.empty()) {
    if (a.sweep_csv == "-") {
      WriteSweepCsv(r, std::cout);
    } else {
      auto out = OpenExport(a.sweep_csv);
      WriteSweepCsv(r, out);
      std::fprintf(stderr, "wrote sweep CSV to %s\n", a.sweep_csv.c_str());
    }
    exported = true;
  }
  if (!exported) {
    std::printf("suite=%s%s%s workload=%s trials/point=%d sanitizer=%s\n",
                spec.suite.c_str(), a.axis.empty() ? "" : " axis=",
                a.axis.c_str(), spec.workload.c_str(), spec.trials,
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

int CmdFigures(const Args& a) {
  FigureOptions o;
  o.trials = static_cast<int>(a.trials);
  o.points = static_cast<int>(a.points);
  o.soft_trials = static_cast<int>(a.soft_trials);
  o.jobs = static_cast<int>(a.jobs);
  o.progress = a.progress;
  o.metrics_json = a.metrics_json;
  return RunFigures(a.positional, o);
}

int Usage() {
  Args dummy;
  std::fprintf(stderr,
               "usage: tfi "
               "<run|exec|campaign|sweep|soft|figures|asmlint|inventory|"
               "workloads|version> ...\n"
               "options:\n%s"
               "see the header of tools/tfi.cpp for details\n",
               MakeParser(dummy).Help().c_str());
  return 2;
}

}  // namespace
}  // namespace tfsim

int main(int argc, char** argv) {
  using namespace tfsim;
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "version" || cmd == "--version") return CmdVersion();
  const Args args = Parse(argc, argv);
  if (!args.error.empty()) {
    std::fprintf(stderr, "tfi: %s\n", args.error.c_str());
    return Usage();
  }
  try {
    if (cmd == "workloads") return CmdWorkloads();
    if (cmd == "inventory") return CmdInventory(args);
    if (cmd == "run") return CmdRun(args);
    if (cmd == "exec") return CmdExec(args);
    if (cmd == "campaign") return CmdCampaign(args);
    if (cmd == "sweep") return CmdSweep(args);
    if (cmd == "soft") return CmdSoft(args);
    if (cmd == "figures") return CmdFigures(args);
    if (cmd == "asmlint") return CmdAsmlint(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tfi: %s\n", e.what());
    return 1;
  }
  return Usage();
}
