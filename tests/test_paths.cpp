// Path equivalence: how a campaign's trials are executed never changes what
// they classify. Every cell of {slow, fast} x {jobs 1, jobs 4} x
// {plain, chaos} runs one spec and must match a single reference run (slow
// path, one worker, nothing persisted) in every trial record, distribution,
// heatmap, cache key and per-trial journal payload. A chaos cell runs with
// real failures at every durability seam: a directory sits at its cache
// entry's path, so the cache load misses and the store fails, and its JSONL
// journal writes to a stream that fails after 200 bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "campaign_fixture.h"
#include "inject/campaign.h"
#include "inject/report.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/prop_trace.h"

namespace tfsim {
namespace {

constexpr int kTrials = 40;

enum class Path { kSlow, kFast };
enum class Mode { kPlain, kChaos };
using Cell = std::tuple<Path, int, Mode>;

std::string CellName(const Cell& cell) {
  static const char* const kPaths[] = {"Slow", "Fast"};
  static const char* const kModes[] = {"Plain", "Chaos"};
  const auto [path, jobs, mode] = cell;
  return std::string(kPaths[static_cast<int>(path)]) + "_Jobs" +
         std::to_string(jobs) + "_" + kModes[static_cast<int>(mode)];
}

// What one campaign run is compared on.
struct Observed {
  CampaignResult result;
  std::string metrics;  // timer-less export: byte-deterministic
  std::uint64_t counted_trials = 0;
  std::uint64_t store_failures = 0;
  std::vector<TrialDonePayload> trial_done;
};

// Runs `spec` with a metrics registry and an event journal attached, plus
// `extra` on the journal when it is non-null.
Observed Observe(const CampaignSpec& spec, CampaignOptions opt,
                 obs::EventSink* extra = nullptr) {
  obs::MetricsRegistry metrics;
  obs::EventJournal journal;
  TrialDoneSink sink;
  journal.AddSink(&sink);
  if (extra != nullptr) journal.AddSink(extra);
  opt.obs.sinks.metrics = &metrics;
  opt.obs.events = &journal;
  Observed o;
  o.result = RunCampaign(spec, opt);
  journal.RemoveSink(&sink);
  if (extra != nullptr) journal.RemoveSink(extra);
  o.trial_done = sink.Sorted();
  std::ostringstream os;
  metrics.WriteJson(os, /*include_timers=*/false);
  o.metrics = os.str();
  o.counted_trials = metrics.GetCounter("campaign.trials").value();
  o.store_failures =
      metrics.GetCounter("campaign.cache.store_failures").value();
  return o;
}

const Observed& Reference() {
  static const Observed ref = [] {
    CampaignOptions opt = QuietLive();
    opt.fast_path = false;
    opt.obs.collect_prop_traces = true;
    return Observe(SmallCampaign(kTrials), opt);
  }();
  return ref;
}

// A fixed generated_at stamp: two exports must not differ just because
// they were written on either side of a second boundary.
std::string HeatmapJson(const CampaignResult& r) {
  std::ostringstream os;
  BuildHeatmap(r).WriteJson(os, r.spec.workload, "2026-01-01T00:00:00Z");
  return os.str();
}

std::string TraceRows(const CampaignResult& r) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.prop_traces.size(); ++i)
    obs::WritePropTraceRow(r.prop_traces[i], r.spec.workload, i, os);
  return os.str();
}

class PathEquivalence : public ::testing::TestWithParam<Cell> {};

TEST_P(PathEquivalence, MatchesReference) {
  const auto [path, jobs, mode] = GetParam();
  const Observed& ref = Reference();
  ASSERT_EQ(ref.result.trials.size(), static_cast<std::size_t>(kTrials));
  ASSERT_EQ(ref.trial_done.size(), static_cast<std::size_t>(kTrials));
  ASSERT_EQ(ref.result.prop_traces.size(), static_cast<std::size_t>(kTrials));
  // The golden run's pipeline histograms share the export with the
  // campaign counters.
  ASSERT_NE(ref.metrics.find("\"pipe.rob.occupancy\""), std::string::npos);
  ASSERT_NE(ref.metrics.find("\"campaign.trials\""), std::string::npos);

  ScopedCacheDir cache("tfi_paths_" + CellName(GetParam()));
  const CampaignSpec spec = SmallCampaign(kTrials);
  CampaignOptions opt = QuietLive();
  opt.jobs = jobs;
  opt.fast_path = path != Path::kSlow;
  // Traced runs bypass the cache load, so only plain cells trace and chaos
  // cells exercise the cache seams.
  const bool traced = mode == Mode::kPlain;
  opt.obs.collect_prop_traces = traced;
  FailingStreambuf full_disk(200);
  std::ostream journal_file(&full_disk);
  std::optional<obs::JsonlEventSink> jsonl;
  if (mode == Mode::kChaos) {
    ASSERT_TRUE(std::filesystem::create_directories(CachePath(spec)));
    opt.use_cache = true;
    jsonl.emplace(journal_file);
  }
  const Observed got = Observe(spec, opt, jsonl ? &*jsonl : nullptr);

  const CampaignResult& r = got.result;
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_EQ(r.trials, ref.result.trials);
  EXPECT_EQ(r.ByOutcome(), ref.result.ByOutcome());
  EXPECT_EQ(r.ByFailureMode(), ref.result.ByFailureMode());
  EXPECT_EQ(r.spec.CacheKey(), ref.result.spec.CacheKey());
  EXPECT_EQ(got.counted_trials, static_cast<std::uint64_t>(kTrials));
  // The heatmap joins latencies from traced trials only, so an untraced
  // cell is compared with the reference's records alone.
  CampaignResult want = ref.result;
  if (!traced) want.prop_traces.clear();
  EXPECT_EQ(HeatmapJson(r), HeatmapJson(want));
  EXPECT_EQ(got.trial_done, ref.trial_done);

  if (mode == Mode::kPlain) {
    EXPECT_EQ(got.metrics, ref.metrics);
    EXPECT_EQ(TraceRows(r), TraceRows(ref.result));
  } else {
    EXPECT_EQ(got.store_failures, 1u);
    EXPECT_TRUE(jsonl->disabled());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, PathEquivalence,
    ::testing::Combine(
        ::testing::Values(Path::kSlow, Path::kFast),
        ::testing::Values(1, 4),
        ::testing::Values(Mode::kPlain, Mode::kChaos)),
    [](const ::testing::TestParamInfo<Cell>& p) { return CellName(p.param); });

}  // namespace
}  // namespace tfsim
