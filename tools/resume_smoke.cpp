// campaign_resume_smoke — end-to-end checkpoint/resume verification.
//
// Interrupts a multi-worker campaign mid-flight (cancellation requested
// from inside the trial loop, exactly as tfi's SIGINT handler does),
// verifies a checkpoint journal was flushed, resumes the campaign at a
// different worker count, and requires the resumed result to be
// byte-identical to an uninterrupted reference run. Both runs checkpoint
// every 7 trials, so the journal is flushed before the interruption as well
// as at it.
//
//   campaign_resume_smoke [workload] [--trials N] [--cancel-at N]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "inject/cache.h"
#include "inject/campaign.h"
#include "util/argparse.h"
#include "util/cancel.h"

using namespace tfsim;

namespace {

int Fail(const char* what) {
  std::fprintf(stderr, "campaign_resume_smoke: FAIL: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t trials = 30, cancel_at = 13;
  ArgParser p;
  p.AddInt("trials", &trials, "campaign size");
  p.AddInt("cancel-at", &cancel_at, "trial index whose start requests cancel");
  if (!p.Parse(argc, argv) || p.positional().size() > 1) {
    std::fprintf(stderr, "campaign_resume_smoke: %s\n%s", p.error().c_str(),
                 p.Help().c_str());
    return 2;
  }

  // A private cache dir so the journal under test can't collide with a real
  // cache, and so reruns start clean.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tfi_resume_smoke").string();
  std::filesystem::remove_all(dir);
  ::setenv("TFI_CACHE_DIR", dir.c_str(), 1);

  CampaignSpec spec;
  spec.workload = p.positional().empty() ? "gzip" : p.positional()[0];
  spec.trials = static_cast<int>(trials);
  spec.golden.warmup = 12000;
  spec.golden.points = 3;
  spec.golden.spacing = 500;
  spec.golden.window = 4000;
  spec.golden.slack = 1000;

  CampaignOptions base;
  base.verbose = false;
  base.use_cache = false;

  const CampaignResult reference = RunCampaign(spec, base);
  if (reference.trials.size() != static_cast<std::size_t>(trials))
    return Fail("reference run has the wrong trial count");

  // Interrupted run: requesting cancellation when trial `cancel_at` starts
  // drains the pool somewhere past that index — an arbitrary interruption
  // point, which is the property under test.
  CancellationToken cancel;
  CampaignOptions interrupted = base;
  interrupted.jobs = 2;
  interrupted.checkpoint_every = 7;
  interrupted.cancel = &cancel;
  interrupted.trial_fault_hook = [&cancel, cancel_at](std::size_t i) {
    if (i == static_cast<std::size_t>(cancel_at)) cancel.Request();
  };
  const CampaignResult partial = RunCampaign(spec, interrupted);
  if (!partial.interrupted) return Fail("campaign was not interrupted");
  if (partial.trials.empty() || partial.trials.size() >= reference.trials.size())
    return Fail("interruption left no meaningful completed prefix");
  const auto journal = LoadCampaignCheckpoint(spec);
  if (!journal) return Fail("no checkpoint journal after interruption");
  if (journal->size() != partial.trials.size())
    return Fail("journal length disagrees with the partial result");

  // Resume at a different worker count; records must be byte-identical to
  // the uninterrupted run's.
  CampaignOptions resume = base;
  resume.jobs = 3;
  resume.checkpoint_every = 7;
  const CampaignResult resumed = RunCampaign(spec, resume);
  if (resumed.interrupted) return Fail("resumed run reports interrupted");
  if (resumed.trials.size() != reference.trials.size())
    return Fail("resumed run has the wrong trial count");
  for (std::size_t i = 0; i < reference.trials.size(); ++i) {
    const TrialRecord& a = reference.trials[i];
    const TrialRecord& b = resumed.trials[i];
    if (a.outcome != b.outcome || a.mode != b.mode || a.cat != b.cat ||
        a.storage != b.storage || a.cycles != b.cycles ||
        a.valid_instrs != b.valid_instrs || a.inflight != b.inflight)
      return Fail("resumed record differs from the uninterrupted run");
  }
  if (resumed.spec.CacheKey() != reference.spec.CacheKey())
    return Fail("cache key changed across resume");
  if (std::filesystem::exists(CampaignCheckpointPath(spec)))
    return Fail("journal not removed after completion");

  std::printf(
      "campaign_resume_smoke: OK (%zu trials, interrupted at %zu, resumed "
      "byte-identical)\n",
      reference.trials.size(), partial.trials.size());
  std::filesystem::remove_all(dir);
  return 0;
}
