// Fault-injection campaigns: many trials over a workload, with aggregation
// helpers that reproduce the paper's figures (outcome mixes per benchmark,
// per state category, failure-mode breakdowns, utilization correlation).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "inject/golden.h"
#include "inject/outcome.h"
#include "inject/trial.h"
#include "obs/prop_trace.h"
#include "obs/sinks.h"
#include "uarch/config.h"
#include "util/stats.h"

namespace tfsim {

struct CampaignSpec {
  std::string workload;        // name from the workload suite
  CoreConfig core;             // microarchitecture + protection mechanisms
  bool include_ram = true;     // latches+RAMs (l+r) vs latches only (l)
  int trials = 500;
  int flips = 1;               // bits flipped per trial (extension models)
  bool adjacent = false;       // spatially correlated extra flips
  GoldenSpec golden;
  std::uint64_t seed = 20040628;  // DSN 2004 :-)

  // Stable key for the on-disk results cache.
  std::string CacheKey() const;
};

// Optional observability for a campaign run. All members may be left at
// their defaults; observation never changes trial results (tracing and
// metrics only read machine state).
struct CampaignObs {
  // Metrics/chrome sinks: the golden-run core feeds both; the campaign adds
  // counters and timers, and the chrome campaign lane is drawn from the
  // event journal (a private one when `events` is null).
  obs::ObsSinks sinks;
  // Record a PropagationTrace per trial into CampaignResult::prop_traces.
  // Traced runs bypass the on-disk result cache (traces are not cached) but
  // still store their results for later untraced runs.
  bool collect_prop_traces = false;
  // Periodic stderr progress lines with trials/sec and the outcome mix,
  // implemented as an obs::ProgressSink consuming the event journal (a
  // private journal is created when `events` is null).
  bool progress = false;
  // Structured campaign event journal (obs/events.h). When non-null, the
  // campaign emits start/finish, golden-done, cache, per-trial-completion
  // and quarantine events into it; tfi
  // wires its file sink (--events-jsonl) to the journal. Emission never
  // blocks trial workers on I/O, and — like every other member here —
  // attaching a journal leaves trial records, classification counts and
  // cache keys byte-identical.
  obs::EventJournal* events = nullptr;
};

// How to run a campaign. Everything here is about *execution*, never about
// *results*: a campaign's trial records, classification counts and cache
// key depend only on the CampaignSpec, and are byte-identical at every
// `jobs` value (trial specs are pre-generated from the seeded Rng before
// any worker starts, and records are collected back in trial-index order).
// RunCampaign reads its execution policy from here only, never from the
// environment; tfi maps its flags onto it.
struct CampaignOptions {
  // Worker threads for the trial loop. 1 runs serially on the calling
  // thread; 0 or negative uses one worker per hardware thread. Each worker
  // owns a private Core replica and shares the immutable golden run.
  int jobs = 1;
  // Stderr notes: golden recording and cache loads (per-trial progress is
  // CampaignObs::progress).
  bool verbose = true;
  // Consult/populate the on-disk results cache. Benchmarks and determinism
  // tests disable this to force live execution.
  bool use_cache = true;
  // Trial fast path: record injection-cycle delta snapshots + first-access
  // data during the golden run, then start trials at their injection point
  // and classify provably convergent/latent trials without simulating.
  // Results are byte-identical to the slow path (pinned by
  // tests/test_fastpath.cpp and the PathEquivalence matrix in
  // tests/test_paths.cpp), so this is pure execution policy and is NOT part
  // of the CacheKey. Checked runs
  // (check_invariants) always take the slow path.
  bool fast_path = true;
  // Debug mode: run every trial core with the per-cycle invariant checker
  // (CoreConfig::check_invariants) and quarantine any trial whose injected
  // fault breaks a structural invariant (preg conservation, queue pointers,
  // ordering...) as Outcome::kTrialError, with the first violation in the
  // quarantine message. Data-value faults don't violate structural
  // invariants and classify normally. Checked runs bypass the results cache
  // (options must never change cached results) and
  // report check.violations.* counter totals when metrics are attached.
  bool check_invariants = false;
  // Test instrumentation: invoked (from worker threads; must be
  // thread-safe) with the trial index before the trial runs. An exception
  // thrown here takes exactly the quarantine path a throwing trial would.
  // Never set in production runs.
  std::function<void(std::size_t)> trial_fault_hook;
  // Observability sinks and per-trial propagation tracing.
  CampaignObs obs;
};

// A quarantined trial: its index and a diagnostic message. The record itself
// (trials[index]) carries Outcome::kTrialError; the message is diagnostic
// only and is not persisted in the cache.
enum class QuarantineReason : std::uint8_t {
  kException,  // the trial threw, or it violated an invariant
};
struct QuarantinedTrial {
  std::uint64_t index = 0;
  std::string message;
  QuarantineReason reason = QuarantineReason::kException;
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<TrialRecord> trials;
  // Trials whose execution threw (or, in checked runs, broke an
  // invariant), in trial-index order. Parallel to the kTrialError
  // records in `trials`; counted by the campaign.trials.quarantined metric.
  // A result with quarantined trials is never cached: a quarantine is a
  // hole in the sample, and a cached hole would outlive its cause.
  std::vector<QuarantinedTrial> quarantined;
  // Per-trial propagation traces, parallel to `trials`. Only populated when
  // CampaignObs::collect_prop_traces was set (never loaded from the cache).
  std::vector<obs::PropagationTrace> prop_traces;
  // Inventory of the injected machine (for Table 1 and rate normalization).
  std::array<StateRegistry::CategoryBits, kNumStateCats> inventory{};
  double golden_ipc = 0.0;
  double golden_bp_accuracy = 0.0;
  std::uint64_t golden_dcache_misses = 0;

  // --- aggregation -----------------------------------------------------------
  std::array<std::uint64_t, kNumOutcomes> ByOutcome() const;
  std::array<std::uint64_t, kNumOutcomes> ByOutcomeForCat(StateCat cat) const;
  std::array<std::uint64_t, kNumFailureModes> ByFailureMode() const;
  std::array<std::uint64_t, kNumFailureModes> ByFailureModeForCat(
      StateCat cat) const;
  std::uint64_t TrialsForCat(StateCat cat) const;
  // Fraction of failed trials (SDC + Terminated).
  Proportion FailureRate() const;
};

// Pre-generates every trial's injection spec from the campaign's seeded
// Rng, in trial order. The trial→spec mapping depends only on `spec` and
// the machine's injectable-bit count — never on CampaignOptions — which is
// what makes parallel runs byte-identical to serial ones.
std::vector<TrialSpec> MakeTrialSpecs(const CampaignSpec& spec,
                                      std::uint64_t injectable_bits);

// Runs (or loads from the cache) a campaign. Returns the complete result or
// throws; a campaign that does not finish leaves nothing on disk.
CampaignResult RunCampaign(const CampaignSpec& spec,
                           const CampaignOptions& opt = {});

// Merges multiple per-benchmark results into one aggregate (the paper's
// rightmost "aggregate" bars). The parts must describe the same injected
// machine (protection config, injection population, state inventory);
// throws std::invalid_argument otherwise.
CampaignResult MergeResults(const std::vector<CampaignResult>& parts);

// Convenience: runs the same campaign spec across all ten workloads,
// forwarding `opt` (including observability sinks) to every campaign.
std::vector<CampaignResult> RunSuite(CampaignSpec spec,
                                     const CampaignOptions& opt = {});

}  // namespace tfsim
