// Throughput of the substrate itself (google-benchmark): detailed-core
// cycles/s (base and protected core), ECC decodes/s, functional-simulator
// instructions/s, Section 5 soft trials/s, checkpoint save/restore, and
// whole fault-injection trials/s.
#include <benchmark/benchmark.h>

#include <fstream>
#include <utility>
#include <vector>

#include "arch/functional_sim.h"
#include "inject/campaign.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "inject/golden.h"
#include "inject/trial.h"
#include "protect/ecc.h"
#include "soft/soft_inject.h"
#include "uarch/core.h"
#include "util/rng.h"
#include "workloads/workloads.h"

using namespace tfsim;

namespace {

const Program& GzipProgram() {
  static const Program p =
      BuildWorkload(WorkloadByName("gzip"), kCampaignIters);
  return p;
}

void BM_CoreCycle(benchmark::State& state) {
  Core core(CoreConfig{}, GzipProgram());
  for (auto _ : state) core.Cycle();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoreCycle);

// Same loop with the per-cycle invariant checker attached — the ratio to
// BM_CoreCycle is the cost of running self-checked (`tfi campaign --check`).
void BM_CoreCycleChecked(benchmark::State& state) {
  CoreConfig cfg;
  cfg.check_invariants = true;
  Core core(cfg, GzipProgram());
  for (auto _ : state) core.Cycle();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoreCycleChecked);

// Same loop on the Section 4 protected core (all four mechanisms): every
// register-file and register-pointer read goes through the ECC codec, and
// the trial loop's ArchViewHash decodes 32 pointers and 32 entries a cycle.
void BM_CoreCycleProtected(benchmark::State& state) {
  CoreConfig cfg;
  cfg.protect = ProtectionConfig::All();
  Core core(cfg, GzipProgram());
  for (auto _ : state) core.Cycle();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoreCycleProtected);

// Decode throughput of the two ECC codes over clean codewords, the case
// nearly every read hits.
void BM_EccDecodeRegfile(benchmark::State& state) {
  Rng rng(11);
  std::vector<std::pair<Word65, std::uint64_t>> words(1024);
  for (auto& [v, check] : words) {
    v = {rng.Next(), rng.NextBool(0.5)};
    check = EncodeRegfileEcc(v);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [v, check] = words[i++ % words.size()];
    benchmark::DoNotOptimize(DecodeRegfileEcc(v, check));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EccDecodeRegfile);

void BM_EccDecodeRegptr(benchmark::State& state) {
  std::vector<std::uint64_t> checks(128);
  for (std::uint64_t p = 0; p < 128; ++p) checks[p] = EncodeRegptrEcc(p);
  std::uint64_t p = 0;
  for (auto _ : state) {
    p = (p + 37) & 0x7F;  // visits every pointer in a scattered order
    benchmark::DoNotOptimize(DecodeRegptrEcc(p, checks[p]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EccDecodeRegptr);

void BM_FunctionalStep(benchmark::State& state) {
  FunctionalSim sim(GzipProgram());
  for (auto _ : state) {
    if (!sim.Running()) state.SkipWithError("program exited");
    sim.Step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FunctionalStep);

// The first 15 trials of the stock reg-bit-64 soft campaign (seed 5) on
// gzip at fig11's size, iters 8, with the reference memo warmed before the
// timed loop. One iteration runs all 15; items are trials.
void BM_SoftTrial(benchmark::State& state) {
  const Program prog = BuildWorkload(WorkloadByName("gzip"), 8, true);
  constexpr std::uint64_t kEligible = 669507;  // reg-writing instructions
  constexpr int kTrials = 15;
  const std::uint64_t max_insns = 4 * FunctionalSim(prog).Run(1ULL << 40);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> trials;
  Rng rng(5);
  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t target = rng.NextBelow(kEligible);
    trials.emplace_back(target, rng.Next());
  }
  RunSoftTrial(prog, SoftFaultModel::kRegBit64, 0, 0, 1);  // warm the memo
  for (auto _ : state)
    for (const auto& [target, seed] : trials)
      benchmark::DoNotOptimize(RunSoftTrial(prog, SoftFaultModel::kRegBit64,
                                            target, seed, max_insns));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kTrials);
}
BENCHMARK(BM_SoftTrial)->Unit(benchmark::kMillisecond);

void BM_SnapshotRestore(benchmark::State& state) {
  Core core(CoreConfig{}, GzipProgram());
  for (int i = 0; i < 2000; ++i) core.Cycle();
  const Core::Snapshot snap = core.Save();
  for (auto _ : state) {
    core.Load(snap);
    benchmark::DoNotOptimize(core.StateHash());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotRestore);

void BM_InjectionTrial(benchmark::State& state) {
  GoldenSpec gs;
  gs.warmup = 20000;
  gs.points = 2;
  const auto golden = RecordGolden(CoreConfig{}, GzipProgram(), gs);
  TrialRunner runner(golden);  // no FastPathPlan recorded: slow path
  Rng rng(7);
  const std::uint64_t bits = runner.core().registry().InjectableBits(true);
  for (auto _ : state) {
    TrialSpec ts;
    ts.checkpoint = static_cast<int>(rng.NextBelow(2));
    ts.offset = rng.NextBelow(gs.offset_max);
    ts.bit_index = rng.NextBelow(bits);
    benchmark::DoNotOptimize(runner.Run(ts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_InjectionTrial);

// Trial throughput against one pre-recorded golden run, fast path vs slow,
// over the exact trial population a campaign of this shape would run. The
// golden run (recorded once, outside the timing loop, with the fast-path
// capture plan) is shared by both variants; the ratio
// BM_CampaignTrialsFast / BM_CampaignTrialsSlow is the fast-path speedup on
// identical work with identical results.
struct TrialBenchRig {
  CampaignSpec spec;
  std::shared_ptr<const GoldenRun> golden;
  std::vector<TrialSpec> specs;
};

const TrialBenchRig& SharedTrialRig() {
  static const TrialBenchRig rig = [] {
    TrialBenchRig r;
    // Deliberately the stock CampaignSpec/GoldenSpec (500 trials, 12 points,
    // 10 000-cycle window): the ratio below is the fast-path speedup on the
    // default campaign, not on a shape tuned to flatter it.
    r.spec.workload = "gzip";
    Core probe(r.spec.core, GzipProgram());
    r.specs = MakeTrialSpecs(
        r.spec, probe.registry().InjectableBits(r.spec.include_ram));
    const FastPathPlan plan =
        PlanFastPath(r.spec.golden, r.specs, probe.registry());
    r.golden = RecordGolden(r.spec.core, GzipProgram(), r.spec.golden,
                            nullptr, &plan);
    return r;
  }();
  return rig;
}

void RunTrialBench(benchmark::State& state, bool fast) {
  const TrialBenchRig& rig = SharedTrialRig();
  TrialPolicy policy;
  policy.fast_path = fast;
  TrialRunner runner(rig.golden, policy);
  for (auto _ : state) {
    for (const TrialSpec& ts : rig.specs)
      benchmark::DoNotOptimize(runner.Run(ts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rig.specs.size()));
}

void BM_CampaignTrialsFast(benchmark::State& state) {
  RunTrialBench(state, /*fast=*/true);
}
BENCHMARK(BM_CampaignTrialsFast)->Unit(benchmark::kMillisecond);

void BM_CampaignTrialsSlow(benchmark::State& state) {
  RunTrialBench(state, /*fast=*/false);
}
BENCHMARK(BM_CampaignTrialsSlow)->Unit(benchmark::kMillisecond);

// Trial-loop throughput of a whole campaign at 1 vs N workers (the engine
// behind `tfi campaign --jobs`). Each iteration runs a 64-trial campaign on
// a short golden run, with the results cache bypassed so the pool actually
// executes, but is timed by the campaign's own `campaign.trial_loop` timer:
// the serial golden recording is left out. So items/s is trial throughput,
// and the 1-vs-N ratio is the pool's parallel scaling.
void RunTrialLoopBench(benchmark::State& state, CampaignOptions opt) {
  CampaignSpec spec;
  spec.workload = "gzip";
  spec.trials = 64;
  spec.golden.warmup = 12000;
  spec.golden.points = 3;
  spec.golden.spacing = 500;
  spec.golden.window = 4000;
  spec.golden.slack = 1000;
  obs::MetricsRegistry metrics;
  opt.jobs = static_cast<int>(state.range(0));
  opt.verbose = false;
  opt.use_cache = false;
  opt.obs.sinks.metrics = &metrics;
  const obs::Timer& loop = metrics.GetTimer("campaign.trial_loop");
  for (auto _ : state) {
    const std::uint64_t before_ns = loop.total_ns();
    benchmark::DoNotOptimize(RunCampaign(spec, opt));
    state.SetIterationTime(
        static_cast<double>(loop.total_ns() - before_ns) * 1e-9);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          spec.trials);
}

void BM_CampaignTrials(benchmark::State& state) {
  RunTrialLoopBench(state, {});
}
BENCHMARK(BM_CampaignTrials)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)  // 0 = one worker per hardware thread
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The same campaign with the event journal on, feeding a JSONL sink that
// writes to the null device. The ratio to BM_CampaignTrials at the same arg
// is the journal's cost on the trial loop; the budget is <3%.
void BM_CampaignTrialsTelemetry(benchmark::State& state) {
  // One journal for the whole benchmark (as in suite mode); the loop
  // measures the marginal per-campaign cost of telemetry.
  std::ofstream null_out("/dev/null");
  obs::EventJournal journal;
  obs::JsonlEventSink sink(null_out);
  journal.AddSink(&sink);
  CampaignOptions opt;
  opt.obs.events = &journal;
  RunTrialLoopBench(state, opt);
  journal.RemoveSink(&sink);
}
BENCHMARK(BM_CampaignTrialsTelemetry)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
