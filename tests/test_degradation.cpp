// Graceful degradation under real operating-system failures: every
// durability seam (atomic writes, cache loads and stores, the JSONL journal
// sink) reports a failure once and carries on, without changing trial
// records or aborting the campaign. Nothing retries; the next run recomputes
// whatever was not persisted. The chaos_smoke cells of test_paths.cpp put
// every seam under failure at once on each execution path.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "campaign_fixture.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "util/fs.h"

namespace tfsim {
namespace {

namespace fs = std::filesystem;

TEST(Failpoint, AtomicWriteSeamErrorReturns) {
  // The temporary cannot be created in a directory that does not exist.
  const fs::path dir = fs::temp_directory_path() / "tfi_fp_missing_dir";
  fs::remove_all(dir);
  const fs::path path = dir / "entry.txt";
  std::string error;
  EXPECT_FALSE(AtomicWriteFile(path, "payload", &error));
  EXPECT_NE(error.find("cannot create"), std::string::npos) << error;
  EXPECT_NE(error.find(".tmp."), std::string::npos) << error;
  EXPECT_FALSE(fs::exists(dir));

  fs::create_directories(dir);
  ASSERT_TRUE(AtomicWriteFile(path, "payload", &error)) << error;
  EXPECT_TRUE(fs::is_regular_file(path));
  fs::remove_all(dir);
}

TEST(Failpoint, CacheAndCheckpointLoadFailuresDegradeToMiss) {
  ScopedCacheDir cache("tfi_fp_cache_entry_dir");
  const CampaignSpec spec = SmallCampaign(4);
  CampaignResult r;
  r.spec = spec;
  r.trials.resize(4);
  // A directory where the entry belongs: it cannot be read as an entry, and
  // the store's final rename cannot replace it.
  ASSERT_TRUE(fs::create_directories(CachePath(spec)));
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());

  obs::MetricsRegistry metrics;
  EXPECT_FALSE(StoreCachedCampaign(r, &metrics));
  EXPECT_EQ(metrics.GetCounter("campaign.cache.store_failures").value(), 1u);
  // The failed store removed its temporary: only the directory is left.
  std::vector<fs::path> left;
  for (const auto& e : fs::directory_iterator(cache.dir()))
    left.push_back(e.path());
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].string(), CachePath(spec));
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());

  // Once the obstruction is gone, the same store and load succeed.
  fs::remove(CachePath(spec));
  ASSERT_TRUE(StoreCachedCampaign(r, &metrics));
  EXPECT_EQ(metrics.GetCounter("campaign.cache.store_failures").value(), 1u);
  EXPECT_TRUE(LoadCachedCampaign(spec).has_value());
}

TEST(Failpoint, JsonlSinkDisablesItselfOnWriteFailure) {
  // A stream that takes 200 bytes and then fails: the header and the first
  // two events fit, the third fails, and the sink silences itself.
  FailingStreambuf buf(200);
  std::ostream os(&buf);
  obs::JsonlEventSink sink(os, "2026-01-01T00:00:00Z");
  ASSERT_TRUE(os.good());

  obs::Event e;
  e.kind = obs::EventKind::kGoldenDone;
  sink.OnEvent(e);
  sink.OnEvent(e);
  EXPECT_FALSE(sink.disabled());
  sink.OnEvent(e);
  EXPECT_TRUE(sink.disabled());
  const std::size_t offered = buf.offered();
  sink.OnEvent(e);
  EXPECT_EQ(buf.offered(), offered);  // nothing further reaches the stream
}

TEST(EventJournal, ConcurrentEmittersReachEverySinkOnceInTsOrder) {
  // Four emitters against a sink that takes ~20us per event, far slower
  // than they emit: the emitters wait for it, and every event still reaches
  // it exactly once, in ts_us order.
  struct SlowSink : obs::EventSink {
    std::vector<obs::Event> seen;
    void OnEvent(const obs::Event& e) override {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      seen.push_back(e);
    }
  } sink;
  obs::EventJournal journal;
  journal.AddSink(&sink);
  constexpr int kThreads = 4;
  constexpr int kEmits = 2000;
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t)
    emitters.emplace_back([&journal, t] {
      for (int i = 0; i < kEmits; ++i)
        journal.Emit(
            {.kind = obs::EventKind::kTrialDone, .trial = i, .worker = t});
    });
  for (std::thread& th : emitters) th.join();
  journal.RemoveSink(&sink);

  EXPECT_EQ(journal.emitted(), std::uint64_t{kThreads * kEmits});
  ASSERT_EQ(sink.seen.size(), std::size_t{kThreads * kEmits});
  std::vector<int> arrivals(kThreads * kEmits, 0);
  for (std::size_t k = 0; k < sink.seen.size(); ++k) {
    const obs::Event& e = sink.seen[k];
    ASSERT_TRUE(e.worker >= 0 && e.worker < kThreads);
    ASSERT_TRUE(e.trial >= 0 && e.trial < kEmits);
    ++arrivals[static_cast<std::size_t>(e.worker * kEmits + e.trial)];
    if (k > 0) {
      EXPECT_LE(sink.seen[k - 1].ts_us, e.ts_us) << "at " << k;
    }
  }
  for (std::size_t k = 0; k < arrivals.size(); ++k)
    EXPECT_EQ(arrivals[k], 1) << "thread " << k / kEmits << " emit "
                              << k % kEmits;
}

}  // namespace
}  // namespace tfsim
