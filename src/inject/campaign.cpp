#include "inject/campaign.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "check/invariants.h"
#include "inject/cache.h"
#include "inject/trial.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "soft/harden.h"
#include "util/argparse.h"
#include "util/rng.h"

namespace tfsim {

std::string CampaignSpec::CacheKey() const {
  // Versioned content hash over everything that affects results. Bump the
  // salt when the model or classifier changes behaviour.
  constexpr std::uint64_t kVersionSalt = 10;  // 10: geometry hashed (two
                                              // specs differing only in core
                                              // shape used to collide)
  std::uint64_t h = Mix64(kVersionSalt);
  for (char c : workload) h = Mix64(h ^ static_cast<std::uint64_t>(c));
  const auto& p = core.protect;
  h = Mix64(h ^ (static_cast<std::uint64_t>(p.timeout_counter) |
                 static_cast<std::uint64_t>(p.regfile_ecc) << 1 |
                 static_cast<std::uint64_t>(p.regptr_ecc) << 2 |
                 static_cast<std::uint64_t>(p.insn_parity) << 3));
  // Every geometry field: the core shape defines the injectable bit space,
  // so two campaigns differing in any size must never share a cache entry.
  for (int g : {core.fetch_width, core.fetch_queue, core.ras_entries,
                core.btb_sets, core.btb_ways, core.icache_bytes,
                core.icache_ways, core.line_bytes, core.decode_width,
                core.rename_width, core.phys_regs, core.sched_entries,
                core.lq_entries, core.sq_entries, core.store_buffer,
                core.dcache_bytes, core.dcache_ways, core.dcache_banks,
                core.mshrs, core.miss_cycles, core.dcache_latency,
                core.rob_entries, core.retire_width, core.timeout_cycles})
    h = Mix64(h ^ static_cast<std::uint64_t>(g));
  h = Mix64(h ^ static_cast<std::uint64_t>(include_ram));
  h = Mix64(h ^ static_cast<std::uint64_t>(trials));
  h = Mix64(h ^ golden.warmup);
  h = Mix64(h ^ static_cast<std::uint64_t>(golden.points));
  h = Mix64(h ^ golden.spacing);
  h = Mix64(h ^ golden.window);
  h = Mix64(h ^ seed);
  h = Mix64(h ^ (static_cast<std::uint64_t>(flips) << 8));
  h = Mix64(h ^ static_cast<std::uint64_t>(adjacent));
  std::ostringstream os;
  os << workload << (include_ram ? "_lr" : "_l")
     << (p.timeout_counter || p.regfile_ecc || p.regptr_ecc || p.insn_parity
             ? "_prot"
             : "_base")
     << "_" << std::hex << h;
  return os.str();
}

std::array<std::uint64_t, kNumOutcomes> CampaignResult::ByOutcome() const {
  std::array<std::uint64_t, kNumOutcomes> out{};
  for (const auto& t : trials) out[static_cast<int>(t.outcome)]++;
  return out;
}

std::array<std::uint64_t, kNumOutcomes> CampaignResult::ByOutcomeForCat(
    StateCat cat) const {
  std::array<std::uint64_t, kNumOutcomes> out{};
  for (const auto& t : trials)
    if (t.cat == cat) out[static_cast<int>(t.outcome)]++;
  return out;
}

std::array<std::uint64_t, kNumFailureModes> CampaignResult::ByFailureMode()
    const {
  std::array<std::uint64_t, kNumFailureModes> out{};
  for (const auto& t : trials) out[static_cast<int>(t.mode)]++;
  return out;
}

std::array<std::uint64_t, kNumFailureModes>
CampaignResult::ByFailureModeForCat(StateCat cat) const {
  std::array<std::uint64_t, kNumFailureModes> out{};
  for (const auto& t : trials)
    if (t.cat == cat) out[static_cast<int>(t.mode)]++;
  return out;
}

std::uint64_t CampaignResult::TrialsForCat(StateCat cat) const {
  std::uint64_t n = 0;
  for (const auto& t : trials)
    if (t.cat == cat) ++n;
  return n;
}

Proportion CampaignResult::FailureRate() const {
  const auto o = ByOutcome();
  const std::uint64_t failed = o[static_cast<int>(Outcome::kSdc)] +
                               o[static_cast<int>(Outcome::kTerminated)];
  // Quarantined trials (kTrialError) are holes in the sample, not machine
  // behaviour; they leave the denominator rather than diluting the rate.
  std::uint64_t sample = 0;
  for (int i = 0; i < kNumPaperOutcomes; ++i) sample += o[i];
  return MakeProportion(failed, sample);
}

namespace {

// One campaign in flight, shared by the four stages below: its identity,
// execution flags and event stream. The stream is the caller's journal, or
// a private one when only --progress or a chrome trace consumes it; with
// neither, an event costs one pointer test. The journal is pure telemetry:
// records, classification counts and cache keys are byte-identical with it
// on or off (tests/test_telemetry.cpp). The destructor detaches the
// per-campaign sinks on every exit path, since the caller's journal
// outlives the campaign.
struct CampaignRun {
  CampaignRun(const CampaignSpec& s, const CampaignOptions& o)
      : spec(s), opt(o), key(s.CacheKey()),
        checked(o.check_invariants || s.core.check_invariants),
        tracing(o.obs.collect_prop_traces), metrics(o.obs.sinks.metrics),
        journal(o.obs.events) {
    if (!journal && (o.obs.progress || o.obs.sinks.chrome))
      journal = &local_journal.emplace();
    if (!journal) return;
    if (o.obs.progress)
      journal->AddSink(&progress.emplace(key, s.trials, std::cerr));
    if (o.obs.sinks.chrome)
      journal->AddSink(&chrome_lane.emplace(*o.obs.sinks.chrome));
  }
  ~CampaignRun() {
    if (progress) journal->RemoveSink(&*progress);
    if (chrome_lane) journal->RemoveSink(&*chrome_lane);
  }
  CampaignRun(const CampaignRun&) = delete;
  CampaignRun& operator=(const CampaignRun&) = delete;

  void Emit(obs::Event e) const {
    if (journal) journal->Emit(std::move(e));
  }
  void Emit(obs::EventKind kind, std::uint64_t value = 0,
            std::int64_t trial = -1, std::string detail = {}) const {
    Emit({.kind = kind, .trial = trial, .value = value,
          .detail = std::move(detail)});
  }

  const CampaignSpec& spec;
  const CampaignOptions& opt;
  const std::string key;
  // Checked campaigns run every trial core with the per-cycle invariant
  // checker and quarantine structural violations. The CacheKey does not
  // hash execution options, so checked runs bypass the cache in both
  // directions.
  const bool checked;
  const bool tracing;
  obs::MetricsRegistry* const metrics;
  std::optional<obs::EventJournal> local_journal;
  obs::EventJournal* journal;
  std::optional<obs::ProgressSink> progress;
  std::optional<obs::ChromeLaneSink> chrome_lane;
};

// Replays a campaign's per-trial counters and histograms into `m`, in trial
// order, after the executor returns (so totals and Welford summaries are
// byte-identical at every `jobs` value) and on cache hits (so a run served
// from the cache reports the campaign.* totals of the run that stored it).
void EmitTrialMetrics(const std::vector<TrialRecord>& trials,
                      obs::MetricsRegistry& m) {
  obs::Counter& total = m.GetCounter("campaign.trials");
  obs::Counter& quarantined = m.GetCounter("campaign.trials.quarantined");
  obs::Histogram& cycles = m.GetHistogram("campaign.trial_cycles", 512, 20);
  for (const TrialRecord& rec : trials) {
    total.Inc();
    m.GetCounter(std::string("campaign.outcome.") + OutcomeName(rec.outcome))
        .Inc();
    if (rec.outcome == Outcome::kTrialError) quarantined.Inc();
    cycles.Add(rec.cycles);
  }
}

// Runs collecting per-trial artifacts (propagation traces, chrome spans)
// record live execution, which is never cached, so they always execute.
std::optional<CampaignResult> LoadFromCache(const CampaignRun& c) {
  if (!c.opt.use_cache || c.tracing || c.opt.obs.sinks.chrome || c.checked)
    return std::nullopt;
  std::optional<CampaignResult> cached = LoadCachedCampaign(c.spec);
  if (!cached) return std::nullopt;
  if (c.metrics) {
    c.metrics->GetCounter("campaign.cache.hits").Inc();
    EmitTrialMetrics(cached->trials, *c.metrics);
  }
  c.Emit(obs::EventKind::kCacheHit, cached->trials.size());
  if (c.opt.verbose)
    std::fprintf(stderr, "[campaign %s] loaded %zu trials from cache\n",
                 c.key.c_str(), cached->trials.size());
  return cached;
}

// Stage 1, plan: the program, a probe replica (its registry layout is every
// trial core's), the inventory, the trial specs and the fast-path capture
// plan. Trial cores may carry the invariant checker; the golden run never
// does (it defines reference behaviour).
struct Plan {
  Program program;
  std::unique_ptr<Core> probe;
  std::vector<TrialSpec> specs;
  // Checked campaigns take the slow path: violation cycles are
  // checkpoint-relative, and the pre-injection advance must run under the
  // checker too. Otherwise both paths are byte-identical.
  bool fast = false;
  FastPathPlan capture;
};

Plan PlanCampaign(const CampaignRun& c, CampaignResult& result) {
  Plan p;
  p.program = ResolveCampaignProgram(c.spec.workload);
  CoreConfig trial_cfg = c.spec.core;
  trial_cfg.check_invariants = c.checked;
  p.probe = std::make_unique<Core>(trial_cfg, p.program);
  const StateRegistry& reg = p.probe->registry();
  for (int cat = 0; cat < kNumStateCats; ++cat)
    result.inventory[cat] = reg.Inventory(static_cast<StateCat>(cat));
  p.specs = MakeTrialSpecs(c.spec, reg.InjectableBits(c.spec.include_ram));
  p.fast = c.opt.fast_path && !c.checked;
  if (p.fast) p.capture = PlanFastPath(c.spec.golden, p.specs, reg);
  return p;
}

// Stage 2, golden: record the reference run, copy its statistics into the
// result.
std::shared_ptr<const GoldenRun> RecordCampaignGolden(const CampaignRun& c,
                                                      const Plan& p,
                                                      CampaignResult& result) {
  if (c.opt.verbose)
    std::fprintf(stderr, "[campaign %s] recording golden run...\n",
                 c.key.c_str());
  std::shared_ptr<const GoldenRun> golden;
  {
    std::optional<obs::ScopedTimer> timed;
    if (c.metrics) timed.emplace(c.metrics->GetTimer("campaign.golden_record"));
    golden = RecordGolden(c.spec.core, p.program, c.spec.golden,
                          &c.opt.obs.sinks, p.fast ? &p.capture : nullptr);
  }
  c.Emit(obs::EventKind::kGoldenDone, golden->checkpoints.size());
  const CoreStats& st = golden->stats;
  result.golden_ipc = st.Ipc();
  result.golden_bp_accuracy =
      st.branches ? 1.0 - static_cast<double>(st.mispredicts) /
                              static_cast<double>(st.branches)
                  : 0.0;
  result.golden_dcache_misses = st.dcache_misses;
  return golden;
}

// One finished trial; the execute stage keeps one per trial index.
struct CompletedTrial {
  std::size_t index = 0;
  TrialRecord record;         // the kTrialError stand-in when quarantined
  std::string error;          // quarantine diagnostic (not persisted)
  std::uint64_t dur_us = 0;   // wall time (telemetry only)
  int worker = 0;             // worker thread
  obs::PropagationTrace trace;  // traced campaigns only
  // Per-kind violation counts of a checked trial that was quarantined.
  std::array<std::uint64_t, check::kNumInvariantKinds> violations{};
};

// Journal events for one completed trial: its quarantine, if any, then
// kTrialDone. The site is resolved against the probe replica; its category
// and storage come from the site, not the record, whose quarantine stand-in
// has defaults.
void EmitCompletion(const CampaignRun& c, const Plan& p,
                    const GoldenSpec& golden, const CompletedTrial& t) {
  using Kind = obs::EventKind;
  const auto trial = static_cast<std::int64_t>(t.index);
  if (t.record.outcome == Outcome::kTrialError)
    c.Emit(Kind::kTrialQuarantine, 0, trial, t.error);
  const StateRegistry& reg = p.probe->registry();
  const BitLocation loc =
      ResolveInjectionSite(golden, p.specs[t.index], reg).primary;
  obs::Event ev{.kind = Kind::kTrialDone, .trial = trial,
                .outcome = t.record.outcome, .mode = t.record.mode,
                .cat = loc.cat, .storage = loc.storage,
                .cycles = t.record.cycles, .dur_us = t.dur_us,
                .worker = t.worker, .field = loc.name,
                .field_bits = reg.FieldInfoAt(loc.field_index).bits()};
  if (c.tracing) {  // propagation latencies (-1 = silent)
    ev.arch_divergence_cycle = t.trace.arch_divergence_cycle;
    ev.first_spread_cycle = t.trace.first_spread_cycle;
  }
  c.Emit(std::move(ev));
}

// Stage 3, execute: the trial loop. Workers, each with a private
// TrialRunner, pull the next unclaimed index; at one worker the calling
// thread runs them all. Every completion goes to the journal and to its own
// slot of the returned vector (distinct indices, read only after the join),
// so records never depend on scheduling. An exception outside a trial ends
// its worker and is rethrown after the join.
std::vector<CompletedTrial> Execute(
    const CampaignRun& c, const Plan& p,
    const std::shared_ptr<const GoldenRun>& golden) {
  std::optional<obs::ScopedTimer> timed;
  if (c.metrics) timed.emplace(c.metrics->GetTimer("campaign.trial_loop"));
  const std::size_t n = p.specs.size();
  std::vector<CompletedTrial> done(n);
  TrialPolicy policy;
  policy.fast_path = p.fast;
  policy.check_invariants = c.checked;
  std::atomic<std::size_t> next{0};
  auto work = [&](int worker) {
    TrialRunner runner(golden, policy);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const auto t0 = std::chrono::steady_clock::now();
      std::function<void()> fault_hook;
      if (c.opt.trial_fault_hook)
        fault_hook = [&hook = c.opt.trial_fault_hook, i] { hook(i); };
      TrialRunner::Result res = runner.Run(p.specs[i], c.tracing, fault_hook);
      CompletedTrial t;
      t.index = i;
      t.record = res.record;
      t.dur_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      t.worker = worker;
      t.trace = std::move(res.trace);
      if (res.quarantined) {
        t.error = std::move(res.error);
        if (const check::InvariantChecker* chk =
                runner.core().invariant_checker())
          for (int k = 0; k < check::kNumInvariantKinds; ++k)
            t.violations[static_cast<std::size_t>(k)] =
                chk->CountFor(static_cast<check::InvariantKind>(k));
      }
      if (c.journal) EmitCompletion(c, p, golden->spec, t);
      done[i] = std::move(t);
    }
  };

  const int jobs = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(ResolveJobs(c.opt.jobs)), n));
  if (jobs == 1) {
    work(0);
    return done;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(jobs));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    pool.emplace_back([&, w] {
      try {
        work(w);
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return done;
}

// Stage 4, finalize: the records, traces and quarantine list in trial
// order, the metrics replay, then the cache store, made only when no trial
// was quarantined.
void Finalize(const CampaignRun& c, std::vector<CompletedTrial>& done,
              CampaignResult& result) {
  std::array<std::uint64_t, check::kNumInvariantKinds> violations{};
  result.trials.reserve(done.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    CompletedTrial& t = done[i];
    result.trials.push_back(t.record);
    if (c.tracing) result.prop_traces.push_back(std::move(t.trace));
    for (std::size_t k = 0; k < violations.size(); ++k)
      violations[k] += t.violations[k];
    if (t.record.outcome == Outcome::kTrialError)
      result.quarantined.push_back({i, t.error});
  }
  if (obs::MetricsRegistry* m = c.metrics) {
    EmitTrialMetrics(result.trials, *m);
    // Violation totals only when nonzero, so a clean campaign's metrics JSON
    // has no always-present keys for them.
    for (std::size_t k = 0; k < violations.size(); ++k)
      if (violations[k])
        m->GetCounter(std::string("check.violations.") +
                      check::InvariantKindName(
                          static_cast<check::InvariantKind>(k)))
            .Inc(violations[k]);
  }
  if (c.opt.use_cache && !c.checked && result.quarantined.empty() &&
      StoreCachedCampaign(result, c.metrics))
    c.Emit(obs::EventKind::kCacheStore, result.trials.size());
}

}  // namespace

std::vector<TrialSpec> MakeTrialSpecs(const CampaignSpec& spec,
                                      std::uint64_t injectable_bits) {
  Rng rng(spec.seed);
  std::vector<TrialSpec> specs;
  specs.reserve(static_cast<std::size_t>(spec.trials));
  for (int t = 0; t < spec.trials; ++t) {
    TrialSpec ts;
    ts.checkpoint = static_cast<int>(
        rng.NextBelow(static_cast<std::uint64_t>(spec.golden.points)));
    ts.offset = rng.NextBelow(spec.golden.offset_max);
    ts.bit_index = rng.NextBelow(injectable_bits);
    ts.include_ram = spec.include_ram;
    ts.flips = spec.flips;
    ts.adjacent = spec.adjacent;
    specs.push_back(ts);
  }
  return specs;
}

CampaignResult RunCampaign(const CampaignSpec& spec,
                           const CampaignOptions& opt) {
  const CampaignRun c(spec, opt);
  c.Emit({.kind = obs::EventKind::kCampaignStart, .field = spec.workload,
          .value = static_cast<std::uint64_t>(spec.trials), .detail = c.key});
  if (std::optional<CampaignResult> cached = LoadFromCache(c)) {
    c.Emit(obs::EventKind::kCampaignFinish, cached->trials.size());
    return *cached;
  }
  if (c.metrics) c.metrics->GetCounter("campaign.cache.misses").Inc();

  CampaignResult result;
  result.spec = spec;
  const Plan plan = PlanCampaign(c, result);
  const std::shared_ptr<const GoldenRun> golden =
      RecordCampaignGolden(c, plan, result);
  std::vector<CompletedTrial> done = Execute(c, plan, golden);
  Finalize(c, done, result);
  c.Emit(obs::EventKind::kCampaignFinish, result.trials.size());
  return result;
}

CampaignResult MergeResults(const std::vector<CampaignResult>& parts) {
  CampaignResult merged;
  if (parts.empty()) return merged;
  // An aggregate is only meaningful across campaigns of the same injected
  // machine: the parts may differ in workload (that is the point) but not in
  // protection config, fault model, injection population or state inventory.
  const CampaignSpec& first = parts.front().spec;
  for (const auto& p : parts) {
    const auto& fp = first.core.protect;
    const auto& pp = p.spec.core.protect;
    const bool same_protect = fp.timeout_counter == pp.timeout_counter &&
                              fp.regfile_ecc == pp.regfile_ecc &&
                              fp.regptr_ecc == pp.regptr_ecc &&
                              fp.insn_parity == pp.insn_parity;
    bool same_inventory = true;
    for (int c = 0; c < kNumStateCats; ++c)
      same_inventory &=
          p.inventory[c].latch_bits == parts.front().inventory[c].latch_bits &&
          p.inventory[c].ram_bits == parts.front().inventory[c].ram_bits;
    if (!same_protect || p.spec.include_ram != first.include_ram ||
        p.spec.flips != first.flips || p.spec.adjacent != first.adjacent ||
        !same_inventory)
      throw std::invalid_argument(
          "MergeResults: incompatible campaign specs (workload '" +
          p.spec.workload + "' differs from '" + first.workload +
          "' in protection/fault model/inventory)");
  }
  merged.spec = first;
  merged.spec.workload = "aggregate";
  merged.inventory = parts.front().inventory;
  double ipc = 0, bp = 0;
  std::uint64_t dmiss = 0;
  for (const auto& p : parts) {
    merged.trials.insert(merged.trials.end(), p.trials.begin(),
                         p.trials.end());
    merged.prop_traces.insert(merged.prop_traces.end(), p.prop_traces.begin(),
                              p.prop_traces.end());
    ipc += p.golden_ipc;
    bp += p.golden_bp_accuracy;
    dmiss += p.golden_dcache_misses;
  }
  merged.golden_ipc = ipc / static_cast<double>(parts.size());
  merged.golden_bp_accuracy = bp / static_cast<double>(parts.size());
  merged.golden_dcache_misses = dmiss;
  return merged;
}

}  // namespace tfsim
