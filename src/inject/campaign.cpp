#include "inject/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "check/invariants.h"
#include "inject/cache.h"
#include "inject/isolate.h"
#include "inject/trial.h"
#include "obs/chrome_trace.h"
#include <iostream>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/argparse.h"
#include "util/env.h"
#include "util/rng.h"
#include "soft/harden.h"
#include "workloads/workloads.h"

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

const char* QuarantineReasonName(QuarantinedTrial::Reason r) {
  switch (r) {
    case QuarantinedTrial::Reason::kException:
      return "exception";
    case QuarantinedTrial::Reason::kTimeout:
      return "timeout";
    case QuarantinedTrial::Reason::kCrash:
      return "crash";
    case QuarantinedTrial::Reason::kBudget:
      return "budget";
  }
  return "unknown";
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

using Clock = std::chrono::steady_clock;

std::uint64_t ElapsedUs(Clock::time_point since, Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - since)
          .count());
}

// Removes the per-campaign progress sink on every exit path (the caller's
// journal outlives this campaign; a sink left registered would dangle).
// RemoveSink waits out in-flight deliveries, so the sink may be destroyed
// as soon as the guard has run.
struct ProgressSinkGuard {
  obs::EventJournal* journal;
  obs::EventSink* sink;
  ProgressSinkGuard(obs::EventJournal* j, obs::EventSink* s)
      : journal(j), sink(s) {
    if (journal && sink) journal->AddSink(sink);
  }
  ~ProgressSinkGuard() {
    if (journal && sink) journal->RemoveSink(sink);
  }
  ProgressSinkGuard(const ProgressSinkGuard&) = delete;
  ProgressSinkGuard& operator=(const ProgressSinkGuard&) = delete;
};

// Wall-clock span of one trial, for the chrome campaign lane. Filled by the
// executing worker; read only after the pool joins.
struct TrialTiming {
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  int worker = 0;
};

// Replays a campaign's per-trial counters and histograms into `m`, in trial
// order. Used both by live runs after the pool joins (so counter totals and
// Welford histogram summaries are byte-identical at every `jobs` value) and
// by cache hits (so a metrics-attached run that loads cached results still
// reports the same campaign.* totals as the live run that produced them).
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
  obs::MetricsRegistry* metrics = opt.obs.sinks.metrics;
  obs::ChromeTraceWriter* chrome = opt.obs.sinks.chrome;
  const bool tracing = opt.obs.collect_prop_traces;
  const std::string key = spec.CacheKey();
  // Checked campaigns run every trial core with the per-cycle invariant
  // checker and quarantine structural violations. The CacheKey deliberately
  // does not hash execution options, so checked runs (whose quarantine
  // decisions differ from unchecked ones) must bypass the cache and the
  // checkpoint journal in both directions.
  const bool checked = opt.check_invariants || spec.core.check_invariants;

  // Event journal: the caller's, or a private one spun up so --progress can
  // run as a journal consumer even with no other telemetry attached. All
  // emission below funnels through `journal`; when it is null an event
  // costs one pointer test. The journal is pure telemetry — trial records,
  // classification counts and cache keys are byte-identical with it on or
  // off (pinned by tests/test_telemetry.cpp).
  std::optional<obs::EventJournal> local_journal;
  obs::EventJournal* journal = opt.obs.events;
  if (!journal && opt.obs.progress) {
    local_journal.emplace();
    journal = &*local_journal;
  }
  std::optional<obs::ProgressSink> progress_sink;
  if (journal && opt.obs.progress)
    progress_sink.emplace(key, spec.trials, std::cerr);
  ProgressSinkGuard progress_guard(
      journal, progress_sink ? &*progress_sink : nullptr);

  auto emit = [&](obs::Event e) {
    if (journal) journal->Emit(std::move(e));
  };
  // Campaign-finish bookkeeping shared by the cache-hit and live paths: the
  // finish event, then a drain so the journal (including the --progress
  // summary line) is complete before RunCampaign returns — also on
  // interruption. The finish event carries the number of
  // events the (shared, possibly pre-used) journal shed to backpressure
  // during THIS campaign, so lossy telemetry is self-reporting.
  const std::uint64_t dropped_before = journal ? journal->dropped() : 0;
  auto finish_journal = [&](std::uint64_t kept, bool interrupted) {
    if (!journal) return;
    const std::uint64_t dropped = journal->dropped() - dropped_before;
    if (metrics && dropped)
      metrics->GetCounter("campaign.events.dropped").Inc(dropped);
    obs::Event e;
    e.kind = obs::EventKind::kCampaignFinish;
    e.value = kept;
    e.interrupted = interrupted;
    e.dropped = dropped;
    journal->Emit(std::move(e));
    journal->Flush();
  };

  {
    obs::Event e;
    e.kind = obs::EventKind::kCampaignStart;
    e.detail = key;
    e.field = spec.workload;
    e.value = static_cast<std::uint64_t>(spec.trials);
    emit(std::move(e));
  }

  // Per-trial artifacts (propagation traces, chrome spans) record live
  // execution and are never cached, so runs collecting them always execute.
  // Metrics-attached runs may load cached results: the campaign.* counters
  // and histograms are replayed from the cached records (identical totals to
  // a live run), and the hit itself becomes observable.
  if (opt.use_cache && !tracing && !chrome && !checked) {
    if (auto cached = LoadCachedCampaign(spec)) {
      if (metrics) {
        metrics->GetCounter("campaign.cache.hits").Inc();
        EmitTrialMetrics(cached->trials, *metrics);
      }
      {
        obs::Event e;
        e.kind = obs::EventKind::kCacheHit;
        e.value = cached->trials.size();
        emit(std::move(e));
      }
      if (opt.verbose)
        std::fprintf(stderr, "[campaign %s] loaded %zu trials from cache\n",
                     key.c_str(), cached->trials.size());
      finish_journal(cached->trials.size(), /*interrupted=*/false);
      return *cached;
    }
  }
  if (metrics) metrics->GetCounter("campaign.cache.misses").Inc();
  if (chrome) {
    chrome->SetProcessName(obs::ChromeTraceWriter::kPidPipeline,
                           "pipeline occupancy (golden run, 1us = 1 cycle)");
    chrome->SetProcessName(obs::ChromeTraceWriter::kPidCampaign,
                           "campaign trials (wall clock)");
  }

  const Program program = ResolveCampaignProgram(spec.workload);

  // Trial cores optionally carry the invariant checker; the golden run below
  // always executes unchecked (it defines reference behaviour, and a clean
  // machine never violates). The probe replica exists before the golden run
  // so the trial specs (and the fast-path capture plan derived from them)
  // can be handed to the recorder.
  CoreConfig trial_cfg = spec.core;
  trial_cfg.check_invariants = checked;
  Core probe(trial_cfg, program);

  CampaignResult result;
  result.spec = spec;
  for (int c = 0; c < kNumStateCats; ++c)
    result.inventory[c] = probe.registry().Inventory(static_cast<StateCat>(c));

  const std::uint64_t bits = probe.registry().InjectableBits(spec.include_ram);
  const std::vector<TrialSpec> specs = MakeTrialSpecs(spec, bits);
  const std::size_t n = specs.size();

  // Trial fast path: tell the recorder which injection cycles to
  // delta-snapshot and which words' first accesses to track. Checked
  // campaigns force the slow path (violation cycles are checkpoint-relative
  // and the pre-injection advance must execute under the checker too);
  // everything else is byte-identical either way.
  const bool fast = opt.fast_path && !checked;
  FastPathPlan plan;
  if (fast) plan = PlanFastPath(spec.golden, specs, probe.registry());

  if (opt.verbose)
    std::fprintf(stderr, "[campaign %s] recording golden run...\n",
                 key.c_str());
  std::shared_ptr<const GoldenRun> golden;
  {
    std::optional<obs::ScopedTimer> timed;
    if (metrics) timed.emplace(metrics->GetTimer("campaign.golden_record"));
    golden = RecordGolden(spec.core, program, spec.golden, &opt.obs.sinks,
                          fast ? &plan : nullptr);
  }
  {
    obs::Event e;
    e.kind = obs::EventKind::kGoldenDone;
    e.value = golden->checkpoints.size();
    emit(std::move(e));
  }

  result.golden_ipc = golden->stats.Ipc();
  result.golden_bp_accuracy =
      golden->stats.branches
          ? 1.0 - static_cast<double>(golden->stats.mispredicts) /
                      static_cast<double>(golden->stats.branches)
          : 0.0;
  result.golden_dcache_misses = golden->stats.dcache_misses;

  result.trials.resize(n);
  if (tracing) result.prop_traces.resize(n);
  std::vector<TrialTiming> timing(n);

  // Checkpoint journaling. TFI_CHECKPOINT_EVERY overrides the option so
  // smoke tests can force tiny intervals on any binary. Trace-collecting
  // runs never journal: the journal holds records only, and a resumed
  // prefix without its traces would break trace/record parallelism.
  const std::int64_t every_env =
      EnvInt("TFI_CHECKPOINT_EVERY", opt.checkpoint_every);
  const std::uint64_t journal_every = (!tracing && !checked && every_env > 0)
                                          ? static_cast<std::uint64_t>(every_env)
                                          : 0;

  // Per-trial completion flags: the release store in the worker pairs with
  // the acquire scan in the checkpointer, making the record slots of the
  // contiguous completed prefix safe to read while other trials still run.
  auto completed = std::make_unique<std::atomic<bool>[]>(n);
  std::size_t resumed = 0;
  if (journal_every) {
    if (auto ckpt = LoadCampaignCheckpoint(spec)) {
      resumed = std::min(ckpt->size(), n);
      for (std::size_t i = 0; i < resumed; ++i) {
        result.trials[i] = (*ckpt)[i];
        completed[i].store(true, std::memory_order_relaxed);
      }
      if (metrics && resumed)
        metrics->GetCounter("campaign.checkpoint.resumed_trials")
            .Inc(resumed);
      if (opt.verbose && resumed)
        std::fprintf(stderr,
                     "[campaign %s] resumed %zu/%zu trials from checkpoint\n",
                     key.c_str(), resumed, n);
    }
  }

  const int jobs = std::min(
      ResolveJobs(opt.jobs),
      static_cast<int>(std::max<std::size_t>(n - resumed, 1)));
  // Wall epoch for the chrome campaign lane and its instant markers. `done`
  // counts completed trials for the checkpoint-flush trigger; user-facing
  // progress is the event journal's ProgressSink.
  const Clock::time_point wall_epoch = Clock::now();
  std::atomic<std::uint64_t> done{resumed};
  std::atomic<std::size_t> next{resumed};
  std::vector<std::string> errmsgs(n);
  std::vector<QuarantinedTrial::Reason> reasons(
      n, QuarantinedTrial::Reason::kException);
  // Per-trial per-kind invariant-violation counts (checked campaigns only).
  // Collected in per-index slots and summed after the pool joins, so the
  // exported check.violations.* totals are identical at every `jobs` value.
  using KindCounts = std::array<std::uint64_t, check::kNumInvariantKinds>;
  std::vector<KindCounts> viol_counts(checked ? n : 0, KindCounts{});

  // Campaign-lane happenings (retry, quarantine, checkpoint flush,
  // cancellation) surface in the chrome trace as instant markers. Workers
  // collect them under a mutex during the run; they are emitted into the
  // writer (which is not thread-safe) only after the pool joins.
  struct Marker {
    std::string name;
    std::uint64_t ts_us;
    obs::ChromeTraceWriter::Args args;
  };
  std::vector<Marker> markers;
  std::mutex markers_mu;
  auto add_marker = [&](const char* name, obs::ChromeTraceWriter::Args args) {
    if (!chrome) return;
    const std::uint64_t ts = ElapsedUs(wall_epoch, Clock::now());
    std::lock_guard<std::mutex> lock(markers_mu);
    markers.push_back({name, ts, std::move(args)});
  };

  // Flushes the journal with the current contiguous completed prefix.
  // Serialized by the mutex; cheap no-op when the prefix hasn't advanced
  // past what's already on disk.
  std::mutex ckpt_mu;
  std::size_t ckpt_prefix = resumed;   // all three guarded by ckpt_mu
  std::size_t ckpt_flushed = resumed;
  // Checkpoint containment: StoreCampaignCheckpoint already retries with
  // backoff internally; a flush that still fails (disk full, permissions)
  // disables checkpointing for the rest of the run — one stderr warning,
  // one kCheckpointDisabled event — instead of hammering a dead disk every
  // interval. The campaign itself continues unharmed; only resumability of
  // THIS run is lost.
  bool ckpt_disabled = false;
  auto FlushCheckpoint = [&] {
    if (!journal_every) return;
    std::lock_guard<std::mutex> lock(ckpt_mu);
    if (ckpt_disabled) return;
    while (ckpt_prefix < n &&
           completed[ckpt_prefix].load(std::memory_order_acquire))
      ++ckpt_prefix;
    if (ckpt_prefix == ckpt_flushed) return;
    const std::vector<TrialRecord> prefix(
        result.trials.begin(),
        result.trials.begin() + static_cast<std::ptrdiff_t>(ckpt_prefix));
    if (!StoreCampaignCheckpoint(spec, prefix, metrics)) {
      ckpt_disabled = true;
      std::fprintf(stderr,
                   "[campaign %s] checkpoint flush failed; checkpointing "
                   "disabled for the rest of this run\n",
                   key.c_str());
      if (journal) {
        obs::Event e;
        e.kind = obs::EventKind::kCheckpointDisabled;
        e.detail = "checkpoint flush failed; checkpointing disabled";
        journal->Emit(std::move(e));
      }
      add_marker("checkpoint disabled", {});
      return;
    }
    ckpt_flushed = ckpt_prefix;
    add_marker("checkpoint flush", {{"prefix", std::to_string(ckpt_flushed)}});
    if (journal) {
      obs::Event e;
      e.kind = obs::EventKind::kCheckpointFlush;
      e.value = ckpt_flushed;
      journal->Emit(std::move(e));
    }
  };

  // Execution policy for every worker's TrialRunner: the retry/quarantine
  // loop and the checked-run handling live in the runner; the campaign adds
  // telemetry through its hooks and collects results in per-index slots.
  TrialPolicy policy;
  policy.fast_path = fast;
  policy.retries = opt.retries;
  policy.check_invariants = checked;
  // Trial containment: the per-attempt watchdog deadline. TFI_TRIAL_TIMEOUT
  // overrides the option so smoke tests can arm it on any binary.
  policy.timeout_ms = EnvInt("TFI_TRIAL_TIMEOUT", opt.trial_timeout_ms);

  // The one trial-completion path, shared by both executors: in-process
  // workers call it concurrently (one call per trial they ran), the
  // isolation supervisor serially from its own thread. It writes only the
  // trial's own slots, the thread-safe journal, the locked marker list and
  // atomics, so calls for distinct trials never race. The injection site is
  // resolved against the probe replica, whose registry layout is identical
  // to every trial core's, so kTrialDone is the same in both modes. Returns
  // the number of trials completed so far (resumed ones included).
  auto complete_trial = [&](IsolatedTrial&& t) -> std::uint64_t {
    const std::size_t i = t.index;
    result.trials[i] = t.record;
    const std::uint64_t now_us = ElapsedUs(wall_epoch, Clock::now());
    timing[i] = {now_us >= t.dur_us ? now_us - t.dur_us : 0, t.dur_us,
                 t.worker};
    if (t.quarantined) {
      using Reason = QuarantinedTrial::Reason;
      const Reason reason = t.budget_exhausted ? Reason::kBudget
                            : t.crashed        ? Reason::kCrash
                            : t.timed_out      ? Reason::kTimeout
                                               : Reason::kException;
      reasons[i] = reason;
      errmsgs[i] = std::move(t.error);
      if (journal) {
        obs::Event ev;
        using Kind = obs::EventKind;
        ev.kind = reason == Reason::kCrash     ? Kind::kTrialCrash
                  : reason == Reason::kTimeout ? Kind::kTrialTimeout
                                               : Kind::kTrialQuarantine;
        ev.trial = static_cast<std::int64_t>(i);
        if (reason == Reason::kCrash) ev.value = t.status;
        if (reason == Reason::kTimeout)
          ev.value = static_cast<std::uint64_t>(policy.timeout_ms);
        ev.detail = errmsgs[i];
        journal->Emit(std::move(ev));
      }
      add_marker(reason == Reason::kCrash     ? "trial crashed"
                 : reason == Reason::kTimeout ? "trial timeout"
                                              : "trial quarantined",
                 {{"trial", std::to_string(i)}, {"error", errmsgs[i]}});
    }
    // Budget holes never ran: keeping them out of the completed[] prefix
    // keeps them out of the checkpoint journal, so a re-run resumes with
    // real execution instead of inheriting the hole.
    if (!t.budget_exhausted)
      completed[i].store(true, std::memory_order_release);
    if (journal) {
      const InjectionSite site =
          ResolveInjectionSite(golden->spec, specs[i], probe.registry());
      const BitLocation& loc = site.primary;
      obs::Event ev;
      ev.kind = obs::EventKind::kTrialDone;
      ev.trial = static_cast<std::int64_t>(i);
      ev.outcome = t.record.outcome;
      ev.mode = t.record.mode;
      // Site category/storage come from the resolved location, not the
      // record: a quarantined record carries defaults, but the injection
      // site is still real.
      ev.cat = loc.cat;
      ev.storage = loc.storage;
      ev.cycles = t.record.cycles;
      ev.dur_us = t.dur_us;
      ev.field = loc.name;
      ev.field_bits = probe.registry().FieldInfoAt(loc.field_index).bits();
      // Propagation latencies join in when tracing (-1 = silent).
      if (tracing) {
        ev.arch_divergence_cycle = result.prop_traces[i].arch_divergence_cycle;
        ev.first_spread_cycle = result.prop_traces[i].first_spread_cycle;
      }
      journal->Emit(std::move(ev));
    }
    const std::uint64_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (journal_every && d % journal_every == 0) FlushCheckpoint();
    return d;
  };

  // One worker's share of the campaign: pull the next unclaimed trial index
  // and run it on a private TrialRunner against the shared golden run.
  // Results land in per-index slots, so collection order never depends on
  // scheduling. Cancellation drains: in-flight trials finish, no new ones
  // start. Worker 0 doubles as the progress printer.
  auto work = [&](TrialRunner& runner, int worker) {
    std::size_t cur = 0;  // trial index the hooks below report against
    TrialRunner::Hooks hooks;
    hooks.before_attempt = [&] {
      if (opt.trial_fault_hook) opt.trial_fault_hook(cur);
    };
    hooks.on_retry = [&](int attempt, const std::string& error) {
      if (journal) {
        obs::Event ev;
        ev.kind = obs::EventKind::kTrialRetry;
        ev.trial = static_cast<std::int64_t>(cur);
        ev.value = static_cast<std::uint64_t>(attempt);
        ev.detail = error;
        journal->Emit(std::move(ev));
      }
      add_marker("trial retry",
                 {{"trial", std::to_string(cur)}, {"error", error}});
    };
    for (;;) {
      if (opt.cancel && opt.cancel->cancelled()) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      cur = i;
      const auto t0 = Clock::now();
      TrialRunner::Result res = runner.Run(specs[i], tracing, &hooks);
      IsolatedTrial t;
      t.index = i;
      t.record = res.record;
      t.quarantined = res.quarantined;
      t.timed_out = res.timed_out;
      t.dur_us = ElapsedUs(t0, Clock::now());
      t.worker = worker;
      t.error = std::move(res.error);
      if (checked && res.quarantined) {
        // Per-kind violation tallies for the check.violations.* totals.
        if (const check::InvariantChecker* chk =
                runner.core().invariant_checker();
            chk && chk->total() != 0) {
          for (int k = 0; k < check::kNumInvariantKinds; ++k)
            viol_counts[i][static_cast<std::size_t>(k)] =
                chk->CountFor(static_cast<check::InvariantKind>(k));
        }
      }
      if (tracing) result.prop_traces[i] = std::move(res.trace);
      const std::uint64_t d = complete_trial(std::move(t));

      if (worker == 0 && !opt.obs.progress && opt.verbose &&
          d % 200 < static_cast<std::uint64_t>(jobs)) {
        std::fprintf(stderr, "[campaign %s] %llu/%d trials\n", key.c_str(),
                     (unsigned long long)d, spec.trials);
      }
    }
  };

  // Crash containment: forked-worker execution (inject/isolate.h). Tracing
  // and checked runs need the trial core in this process (traces and checker
  // state don't cross the pipe), so they fall back to in-process execution.
  const bool isolate = [&] {
    if (!opt.isolate_trials) return false;
    if (tracing || checked) {
      std::fprintf(stderr,
                   "[campaign %s] --isolate-trials is incompatible with "
                   "propagation tracing and checked runs; executing "
                   "in-process\n",
                   key.c_str());
      return false;
    }
    if (!IsolationSupported()) {
      std::fprintf(stderr,
                   "[campaign %s] trial isolation is not supported on this "
                   "platform; executing in-process\n",
                   key.c_str());
      return false;
    }
    return true;
  }();

  {
    std::optional<obs::ScopedTimer> loop_timer;
    if (metrics) loop_timer.emplace(metrics->GetTimer("campaign.trial_loop"));
    if (isolate) {
      IsolateOptions iso;
      iso.jobs = jobs;
      iso.policy = policy;
      iso.max_restarts = opt.max_worker_restarts;
      iso.cancel = opt.cancel;
      iso.before_trial = opt.trial_fault_hook;
      iso.verbose = opt.verbose;
      const IsolateReport rep = RunTrialsIsolated(
          golden, specs, resumed, iso,
          [&](IsolatedTrial&& t) { complete_trial(std::move(t)); });
      result.worker_restarts = rep.restarts;
      result.containment_exhausted = rep.exhausted;
      if (metrics && rep.restarts)
        metrics->GetCounter("campaign.workers.restarts").Inc(rep.restarts);
    } else if (jobs <= 1) {
      TrialRunner runner(golden, policy);
      work(runner, 0);
    } else {
      std::vector<std::exception_ptr> errors(static_cast<std::size_t>(jobs));
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(jobs));
      for (int w = 0; w < jobs; ++w) {
        pool.emplace_back([&, w] {
          try {
            TrialRunner runner(golden, policy);
            work(runner, w);
          } catch (...) {
            errors[static_cast<std::size_t>(w)] = std::current_exception();
          }
        });
      }
      for (auto& th : pool) th.join();
      for (const auto& e : errors)
        if (e) std::rethrow_exception(e);
    }
  }
  // Interruption: keep only the contiguous completed prefix — exactly what
  // the journal holds — so the partial result, its telemetry, and a later
  // resumed run all agree on which trials exist. Trials completed out of
  // order beyond the prefix are discarded (their specs re-run on resume).
  if (opt.cancel && opt.cancel->cancelled()) {
    {
      obs::Event e;
      e.kind = obs::EventKind::kCancelRequested;
      emit(std::move(e));
    }
    add_marker("cancelled", {});
    std::size_t prefix = 0;
    while (prefix < n &&
           completed[prefix].load(std::memory_order_acquire))
      ++prefix;
    if (prefix < n) {
      FlushCheckpoint();
      result.interrupted = true;
      result.trials.resize(prefix);
      if (tracing) result.prop_traces.resize(prefix);
      timing.resize(prefix);
      if (opt.verbose)
        std::fprintf(stderr,
                     "[campaign %s] interrupted at %zu/%zu trials%s\n",
                     key.c_str(), prefix, n,
                     journal_every ? " (checkpoint flushed)" : "");
    }
  }

  // Quarantined trials, in trial-index order (messages are empty for
  // records restored from a checkpoint — diagnostics are not persisted).
  for (std::size_t i = 0; i < result.trials.size(); ++i)
    if (result.trials[i].outcome == Outcome::kTrialError)
      result.quarantined.push_back({i, errmsgs[i], reasons[i]});

  // Telemetry is emitted after the pool joins, in trial-index order, so the
  // exported counters/histograms (and the chrome span list) are identical
  // to a serial run's regardless of how trials were scheduled.
  if (metrics) EmitTrialMetrics(result.trials, *metrics);
  if (metrics) {
    // Containment-specific quarantine splits. Only emitted when nonzero so
    // a clean campaign's metrics JSON stays byte-identical to pre-watchdog
    // runs (no new always-present keys).
    std::uint64_t n_timeout = 0, n_crash = 0;
    for (const QuarantinedTrial& q : result.quarantined) {
      if (q.reason == QuarantinedTrial::Reason::kTimeout) ++n_timeout;
      if (q.reason == QuarantinedTrial::Reason::kCrash) ++n_crash;
    }
    if (n_timeout)
      metrics->GetCounter("campaign.trials.timeout").Inc(n_timeout);
    if (n_crash) metrics->GetCounter("campaign.trials.crash").Inc(n_crash);
  }
  if (metrics && checked) {
    for (int k = 0; k < check::kNumInvariantKinds; ++k) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < result.trials.size(); ++i)
        sum += viol_counts[i][static_cast<std::size_t>(k)];
      if (sum)
        metrics
            ->GetCounter(std::string("check.violations.") +
                         check::InvariantKindName(
                             static_cast<check::InvariantKind>(k)))
            .Inc(sum);
    }
  }
  if (chrome) {
    for (int w = 0; w < jobs; ++w)
      chrome->SetThreadName(obs::ChromeTraceWriter::kPidCampaign, w,
                            "trial worker " + std::to_string(w));
    for (std::size_t i = 0; i < result.trials.size(); ++i) {
      const TrialRecord& rec = result.trials[i];
      chrome->CompleteEvent(
          OutcomeName(rec.outcome), obs::ChromeTraceWriter::kPidCampaign,
          timing[i].worker, timing[i].ts_us, timing[i].dur_us,
          {{"category", StateCatName(rec.cat)},
           {"failure_mode", FailureModeName(rec.mode)},
           {"cycles", std::to_string(rec.cycles)}});
    }
    // Instant markers last, in time order (workers appended them in
    // completion order, which needn't be monotone across threads).
    std::sort(markers.begin(), markers.end(),
              [](const Marker& a, const Marker& b) { return a.ts_us < b.ts_us; });
    for (const Marker& m : markers)
      chrome->InstantEvent(m.name, obs::ChromeTraceWriter::kPidCampaign,
                           m.ts_us, m.args);
  }

  if (!result.interrupted && result.containment_exhausted) {
    // Budget holes are synthesized, not executed: never cache them, keep
    // the checkpoint journal (which holds only genuinely executed trials,
    // thanks to the completed[] gating above) and flush it one last time so
    // a re-run resumes from the largest real prefix.
    FlushCheckpoint();
  } else if (!result.interrupted) {
    if (opt.use_cache && !checked &&
        StoreCachedCampaign(result, metrics)) {
      obs::Event e;
      e.kind = obs::EventKind::kCacheStore;
      e.value = result.trials.size();
      emit(std::move(e));
    }
    // The journal is subsumed by the completed result; drop it so the next
    // run of this CacheKey starts clean (or hits the cache).
    if (journal_every) RemoveCampaignCheckpoint(spec);
  }
  finish_journal(result.trials.size(), result.interrupted);
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

std::vector<CampaignResult> RunSuite(CampaignSpec spec,
                                     const CampaignOptions& opt) {
  std::vector<CampaignResult> out;
  for (const auto& w : AllWorkloads()) {
    spec.workload = w.name;
    out.push_back(RunCampaign(spec, opt));
  }
  return out;
}

}  // namespace tfsim
