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
// RunCampaign's --isolate-trials mode picks this executor in place of
// RunTrials.
#pragma once

#include <memory>
#include <vector>

#include "inject/golden.h"
#include "inject/trial.h"

namespace tfsim {

// True where fork-based isolation is implemented (POSIX).
bool IsolationSupported();

// The forked-worker executor, with RunTrials' signature (inject/trial.h).
// Of TrialExecOptions it honours jobs, policy, cancel, hooks.before_attempt
// (run in the child), max_restarts and verbose. policy.timeout_ms is doubly
// enforced: the child's own watchdog converts in-loop hangs into clean
// timeout quarantines, and the supervisor hard-kills (SIGKILL) any worker
// silent for 2*timeout_ms + 250ms, so a hang the child cannot see (e.g.
// outside the cycle loop) still cannot stall the campaign; with
// timeout_ms == 0 it never hard-kills. Workers respawned after a crash or
// hard-kill count against max_restarts; once it is spent the supervisor
// stops and the remaining trials are reported as kBudget quarantines.
//
// `on_done` is called from the supervisor thread, never concurrently, in
// completion order. Every index in [first, size) gets exactly one call: a
// real record, a quarantined stand-in, or a kBudget stand-in (unless
// cancellation stopped the hand-out first). Throws std::runtime_error
// where IsolationSupported() is false.
TrialExecReport RunTrialsIsolated(
    const std::shared_ptr<const GoldenRun>& golden,
    const std::vector<TrialSpec>& specs, std::size_t first,
    const TrialExecOptions& opt, const TrialCallback& on_done);

}  // namespace tfsim
