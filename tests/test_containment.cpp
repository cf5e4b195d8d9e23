// Trial containment: the TrialRunner watchdog deadline (hung trials become
// quarantined timeout records instead of stalling workers) and the
// forked-worker isolation mode (crashing trials kill only their worker; the
// supervisor records the loss, respawns, and surviving records stay
// byte-identical to an in-process run at any worker count).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "campaign_fixture.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "inject/isolate.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace tfsim {
namespace {

// Expects every record of `a` to equal `b`'s, except at the indices in
// `skip` (the quarantined trials).
void ExpectSameSurvivors(const CampaignResult& a, const CampaignResult& b,
                         const std::vector<std::size_t>& skip = {}) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    if (std::find(skip.begin(), skip.end(), i) != skip.end()) continue;
    EXPECT_EQ(a.trials[i], b.trials[i]) << "trial " << i;
  }
}

// Runs `opt` with a journal attached and returns the result plus its
// kTrialDone payloads sorted by trial index.
CampaignResult RunWithTrialDone(const CampaignSpec& spec, CampaignOptions opt,
                                std::vector<TrialDonePayload>* payloads) {
  obs::EventJournal journal;
  TrialDoneSink sink;
  journal.AddSink(&sink);
  opt.obs.events = &journal;
  CampaignResult r = RunCampaign(spec, opt);
  journal.RemoveSink(&sink);
  *payloads = sink.Sorted();
  return r;
}

TEST(Watchdog, HungHookIsQuarantinedAsTimeout) {
  const CampaignSpec spec = SmallCampaign(6);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  for (int jobs : {1, 4}) {
    obs::MetricsRegistry metrics;
    CampaignOptions opt = QuietLive();
    opt.jobs = jobs;
    opt.trial_timeout_ms = 50;
    opt.retries = 3;  // a timeout must NOT consume retries
    opt.obs.sinks.metrics = &metrics;
    opt.trial_fault_hook = [](std::size_t i) {
      // Trial 2 wedges: the hook outlives the deadline; the in-loop check
      // fires on the first cycle batch after the hook returns.
      if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(120));
    };
    const CampaignResult r = RunCampaign(spec, opt);

    ASSERT_EQ(r.trials.size(), 6u) << "jobs=" << jobs;
    EXPECT_EQ(r.trials[2].outcome, Outcome::kTrialError);
    ASSERT_EQ(r.quarantined.size(), 1u);
    EXPECT_EQ(r.quarantined[0].index, 2u);
    EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kTimeout);
    EXPECT_NE(r.quarantined[0].message.find("watchdog"), std::string::npos);
    EXPECT_EQ(metrics.GetCounter("campaign.trials.timeout").value(), 1u);
    // Surviving trials classified exactly as the clean run's.
    ExpectSameSurvivors(r, reference, {2});
  }
}

TEST(Watchdog, RunnerReportsTimedOutWithoutRetrying) {
  const CampaignSpec spec = SmallCampaign(1);
  CampaignOptions opt = QuietLive();
  const CampaignResult warm = RunCampaign(spec, opt);
  ASSERT_EQ(warm.trials.size(), 1u);

  // Re-create the golden run and drive the runner directly.
  // (Cheapest route: a one-trial campaign with a hook that always stalls.)
  obs::MetricsRegistry metrics;
  CampaignOptions hung = QuietLive();
  hung.trial_timeout_ms = 40;
  hung.retries = 5;
  hung.obs.sinks.metrics = &metrics;
  int calls = 0;
  hung.trial_fault_hook = [&calls](std::size_t) {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  const CampaignResult r = RunCampaign(spec, hung);
  // One attempt only: timeouts skip the retry loop (a deterministic hang
  // would hang every retry too).
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kTimeout);
}

#ifndef _WIN32

TEST(Isolate, CleanRunMatchesInProcessByteForByte) {
  ASSERT_TRUE(IsolationSupported());
  const CampaignSpec spec = SmallCampaign(10);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  for (int jobs : {1, 4}) {
    CampaignOptions opt = QuietLive();
    opt.jobs = jobs;
    std::vector<TrialDonePayload> in_process;
    const CampaignResult local = RunWithTrialDone(spec, opt, &in_process);
    EXPECT_EQ(local.trials, reference.trials) << "jobs=" << jobs;

    opt.isolate_trials = true;
    std::vector<TrialDonePayload> isolated;
    const CampaignResult r = RunWithTrialDone(spec, opt, &isolated);
    EXPECT_FALSE(r.interrupted) << "jobs=" << jobs;
    EXPECT_FALSE(r.containment_exhausted);
    EXPECT_EQ(r.worker_restarts, 0u);
    EXPECT_TRUE(r.quarantined.empty());
    EXPECT_EQ(r.trials, reference.trials) << "jobs=" << jobs;

    // Both executors report through one completion path, so the journal's
    // per-trial payloads agree exactly, one per trial.
    ASSERT_EQ(in_process.size(), static_cast<std::size_t>(spec.trials))
        << "jobs=" << jobs;
    for (std::size_t i = 0; i < in_process.size(); ++i)
      EXPECT_EQ(std::get<0>(in_process[i]), static_cast<std::int64_t>(i));
    EXPECT_EQ(isolated, in_process) << "jobs=" << jobs;
  }
}

TEST(Isolate, CrashingTrialIsContainedAndRecorded) {
  const CampaignSpec spec = SmallCampaign(10);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  for (int jobs : {1, 4}) {
    obs::MetricsRegistry metrics;
    CampaignOptions opt = QuietLive();
    opt.jobs = jobs;
    opt.isolate_trials = true;
    opt.obs.sinks.metrics = &metrics;
    // The hook runs in the forked child: trial 4 takes its whole worker
    // down with a real SIGSEGV-class death.
    opt.trial_fault_hook = [](std::size_t i) {
      if (i == 4) std::raise(SIGKILL);
    };
    const CampaignResult r = RunCampaign(spec, opt);

    ASSERT_EQ(r.trials.size(), 10u) << "jobs=" << jobs;
    EXPECT_FALSE(r.interrupted);
    EXPECT_FALSE(r.containment_exhausted);
    EXPECT_EQ(r.trials[4].outcome, Outcome::kTrialError);
    ASSERT_EQ(r.quarantined.size(), 1u);
    EXPECT_EQ(r.quarantined[0].index, 4u);
    EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kCrash);
    EXPECT_NE(r.quarantined[0].message.find("signal"), std::string::npos);
    EXPECT_EQ(metrics.GetCounter("campaign.trials.crash").value(), 1u);
    if (jobs == 1) {
      // Serial: trials 5..9 were still owed when the worker died, so the
      // supervisor must have respawned exactly once. (At jobs=4 the other
      // workers may drain the queue before the death is even noticed, so
      // the respawn is scheduling-dependent.)
      EXPECT_EQ(r.worker_restarts, 1u);
      EXPECT_EQ(metrics.GetCounter("campaign.workers.restarts").value(), 1u);
    } else {
      EXPECT_LE(r.worker_restarts, 1u);
    }
    // Every surviving record byte-identical to the in-process clean run.
    ExpectSameSurvivors(r, reference, {4});
  }
}

TEST(Isolate, ChildWatchdogConvertsHangsToTimeouts) {
  const CampaignSpec spec = SmallCampaign(8);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  CampaignOptions opt = QuietLive();
  opt.jobs = 2;
  opt.isolate_trials = true;
  opt.trial_timeout_ms = 50;
  opt.trial_fault_hook = [](std::size_t i) {
    if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(120));
  };
  const CampaignResult r = RunCampaign(spec, opt);

  ASSERT_EQ(r.trials.size(), 8u);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].index, 3u);
  EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kTimeout);
  // The worker survived (the child's own watchdog fired, no kill needed).
  EXPECT_EQ(r.worker_restarts, 0u);
  ExpectSameSurvivors(r, reference, {3});
}

TEST(Isolate, ExhaustedRestartBudgetQuarantinesTheRemainder) {
  ScopedCacheDir cache("tfi_isolate_budget");
  const CampaignSpec spec = SmallCampaign(10);

  CampaignOptions opt = QuietLive();
  opt.use_cache = true;  // prove the poisoned result is NOT cached
  opt.jobs = 1;
  opt.isolate_trials = true;
  opt.max_worker_restarts = 1;
  opt.checkpoint_every = 1;
  // Every trial from 2 on crashes its worker: crash at 2, respawn (budget
  // spent), crash at 3, budget exhausted -> 4..9 are synthesized holes.
  opt.trial_fault_hook = [](std::size_t i) {
    if (i >= 2) std::raise(SIGKILL);
  };
  const CampaignResult r = RunCampaign(spec, opt);

  ASSERT_EQ(r.trials.size(), 10u);
  EXPECT_TRUE(r.containment_exhausted);
  EXPECT_EQ(r.worker_restarts, 1u);
  ASSERT_EQ(r.quarantined.size(), 8u);  // 2 crashes + 6 budget holes
  EXPECT_EQ(r.quarantined[0].reason, QuarantinedTrial::Reason::kCrash);
  EXPECT_EQ(r.quarantined[1].reason, QuarantinedTrial::Reason::kCrash);
  for (std::size_t q = 2; q < r.quarantined.size(); ++q)
    EXPECT_EQ(r.quarantined[q].reason, QuarantinedTrial::Reason::kBudget);

  // The poisoned result must not enter the cache; the checkpoint journal
  // holds only trials that actually EXECUTED (0, 1, and the two recorded
  // crashes) — never the synthesized budget holes — so a re-run resumes
  // past them and finishes the job.
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());
  const auto ckpt = LoadCampaignCheckpoint(spec);
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_EQ(ckpt->size(), 4u);

  CampaignOptions clean = QuietLive();
  clean.use_cache = true;
  clean.checkpoint_every = 4;
  const CampaignResult healed = RunCampaign(spec, clean);
  EXPECT_FALSE(healed.containment_exhausted);
  ASSERT_EQ(healed.trials.size(), 10u);
  // The crash records persisted (indices 2 and 3, like any quarantine); the
  // budget holes did not — trials 4..9 executed for real this time.
  EXPECT_EQ(healed.quarantined.size(), 2u);
  for (std::size_t i = 4; i < 10; ++i)
    EXPECT_NE(healed.trials[i].outcome, Outcome::kTrialError) << i;
}

TEST(Isolate, FallsBackInProcessWhenTracing) {
  // Tracing needs the trial core in-process; --isolate-trials must degrade
  // to normal execution, not silently drop traces.
  const CampaignSpec spec = SmallCampaign(4);
  CampaignOptions opt = QuietLive();
  opt.isolate_trials = true;
  opt.obs.collect_prop_traces = true;
  const CampaignResult r = RunCampaign(spec, opt);
  EXPECT_EQ(r.prop_traces.size(), 4u);
  EXPECT_FALSE(r.containment_exhausted);
}

#endif  // !_WIN32

}  // namespace
}  // namespace tfsim
