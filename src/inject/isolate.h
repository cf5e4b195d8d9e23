// Crash containment for fault-injection trials: execute trials in forked
// worker subprocesses under a single-threaded parent supervisor, so a trial
// that segfaults (or wedges past every in-process watchdog) kills only its
// worker. The supervisor harvests the exit status, synthesizes a quarantined
// record for the trial that was in flight, respawns the worker within a
// bounded restart budget, and keeps the campaign running.
//
// Why fork: each worker inherits the (immutable, already-recorded) golden
// run and the pre-generated TrialSpecs by copy-on-write — no serialization
// of the multi-megabyte timeline, and byte-identical TrialRunner behaviour
// to in-process execution. Children run exactly one TrialRunner and spawn no
// threads (fork from a multi-threaded parent is safe only on that
// discipline; it also keeps TSan happy). Trial results return over a pipe as
// fixed-layout frames; the parent fills per-index slots, so surviving
// records are byte-identical to an in-process run at any worker count.
//
// This is the containment substrate RunCampaign's --isolate-trials mode
// builds on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "inject/golden.h"
#include "inject/outcome.h"
#include "inject/trial.h"
#include "util/cancel.h"

namespace tfsim {

// True where fork-based isolation is implemented (POSIX).
bool IsolationSupported();

struct IsolateOptions {
  // Concurrent worker subprocesses (already resolved; >= 1).
  int jobs = 1;
  // Execution policy forwarded to every child's TrialRunner. timeout_ms is
  // doubly enforced: the child's own watchdog converts in-loop hangs into
  // clean kTrialTimeout frames, and the parent hard-kills (SIGKILL) any
  // worker silent for 2*timeout_ms + 250ms — a hang the child cannot see
  // (e.g. outside the cycle loop) still cannot stall the campaign. With
  // timeout_ms == 0 the parent never hard-kills.
  TrialPolicy policy;
  // Workers respawned after a crash/hard-kill before the supervisor declares
  // containment exhausted and stops (remaining trials are quarantined).
  int max_restarts = 16;
  // Cooperative cancellation: in-flight trials finish (deadline permitting),
  // no new ones start, report.interrupted is set.
  CancellationToken* cancel = nullptr;
  // Test instrumentation, executed IN THE CHILD before each attempt (the
  // isolate-mode equivalent of CampaignOptions::trial_fault_hook): a throw
  // quarantines, a crash or hang exercises the supervisor.
  std::function<void(std::size_t)> before_trial;
  bool verbose = false;
};

// One trial's outcome as observed by the supervisor. RunCampaign's
// in-process workers report their trials in the same shape, so both
// executors share one completion path.
struct IsolatedTrial {
  std::size_t index = 0;
  TrialRecord record;           // kTrialError stand-in when quarantined
  bool quarantined = false;     // any reason
  bool timed_out = false;       // child watchdog or parent hard-kill
  bool crashed = false;         // worker died (signal / nonzero exit)
  bool budget_exhausted = false;  // synthesized: never ran, budget spent
  std::uint64_t status = 0;     // crash: signal number or exit status
  std::uint64_t dur_us = 0;     // wall time (parent-observed for crashes)
  int worker = 0;               // supervisor worker slot
  std::string error;            // diagnostic (not persisted)
};

struct IsolateReport {
  bool exhausted = false;       // restart budget ran out mid-campaign
  bool interrupted = false;     // cancellation observed
  std::uint64_t restarts = 0;   // workers respawned
  std::uint64_t crashes = 0;    // trials lost to worker death
  std::uint64_t timeouts = 0;   // trials lost to deadlines (child or parent)
};

// Runs specs[first..size) in isolated workers, invoking `on_result` once per
// trial index (in completion order, from the supervisor thread — never
// concurrently). Every index in [first, size) gets exactly one callback:
// a real record, a quarantined stand-in, or a budget_exhausted stand-in.
// Throws std::runtime_error where IsolationSupported() is false.
IsolateReport RunTrialsIsolated(
    const std::shared_ptr<const GoldenRun>& golden,
    const std::vector<TrialSpec>& specs, std::size_t first,
    const IsolateOptions& opt,
    const std::function<void(IsolatedTrial&&)>& on_result);

}  // namespace tfsim
