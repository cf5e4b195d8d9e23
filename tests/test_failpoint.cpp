// The failpoint chaos engine (util/failpoint.h) and the graceful-degradation
// contracts it exists to prove: every durability seam (atomic writes, cache
// loads and stores, JSONL sinks) absorbs injected I/O failure
// without changing trial records or aborting the campaign. The Chaos cells
// of test_paths.cpp arm every seam at once on each execution path.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign_fixture.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/fs.h"

namespace tfsim {
namespace {

namespace fs = std::filesystem;

TEST(Failpoint, DisarmedProbeNeverFires) {
  FailpointGuard guard;
  EXPECT_FALSE(fail::FailHere("no.such.site"));
  EXPECT_EQ(fail::HitCount("no.such.site"), 0u);
}

TEST(Failpoint, ErrorPolicyCadenceAndCounters) {
  FailpointGuard guard;
  fail::Configure("t.site", {fail::Action::kError, /*one_in=*/3});
  // First hit always fires, then every third.
  EXPECT_TRUE(fail::FailHere("t.site"));
  EXPECT_FALSE(fail::FailHere("t.site"));
  EXPECT_FALSE(fail::FailHere("t.site"));
  EXPECT_TRUE(fail::FailHere("t.site"));
  EXPECT_FALSE(fail::FailHere("t.site"));
  EXPECT_EQ(fail::HitCount("t.site"), 5u);
  EXPECT_EQ(fail::FireCount("t.site"), 2u);
  // Reconfiguring with kOff clears the site.
  fail::Configure("t.site", {});
  EXPECT_FALSE(fail::FailHere("t.site"));
}

TEST(Failpoint, LimitStopsFiring) {
  FailpointGuard guard;
  fail::Configure("t.limited", {fail::Action::kError, 1, /*limit=*/2});
  EXPECT_TRUE(fail::FailHere("t.limited"));
  EXPECT_TRUE(fail::FailHere("t.limited"));
  EXPECT_FALSE(fail::FailHere("t.limited"));
  EXPECT_FALSE(fail::FailHere("t.limited"));
  EXPECT_EQ(fail::FireCount("t.limited"), 2u);
}

TEST(Failpoint, ThrowPolicyRaisesFailpointError) {
  FailpointGuard guard;
  fail::Configure("t.throws", {fail::Action::kThrow});
  EXPECT_THROW(fail::FailHere("t.throws"), fail::FailpointError);
}

TEST(Failpoint, PrefixPatternsMatchAndExactWins) {
  FailpointGuard guard;
  fail::Configure("grp.*", {fail::Action::kError});
  fail::Configure("grp.exempt", {fail::Action::kThrow});
  EXPECT_TRUE(fail::FailHere("grp.a"));
  EXPECT_TRUE(fail::FailHere("grp.b.c"));
  // Exact beats prefix.
  EXPECT_THROW(fail::FailHere("grp.exempt"), fail::FailpointError);
  EXPECT_FALSE(fail::FailHere("other.a"));
  EXPECT_EQ(fail::HitCount("grp.*"), 2u);
}

TEST(Failpoint, SpecParsingRoundTrip) {
  FailpointGuard guard;
  std::string err;
  ASSERT_TRUE(fail::ConfigureFromSpec(
      "a.one=error@1in2;b.two=throw#1", &err))
      << err;
  EXPECT_TRUE(fail::FailHere("a.one"));
  EXPECT_FALSE(fail::FailHere("a.one"));
  EXPECT_TRUE(fail::FailHere("a.one"));
  EXPECT_THROW(fail::FailHere("b.two"), fail::FailpointError);
  EXPECT_FALSE(fail::FailHere("b.two"));  // #1 spent
}

TEST(Failpoint, SpecParsingRejectsMalformedInput) {
  FailpointGuard guard;
  std::string err;
  EXPECT_FALSE(fail::ConfigureFromSpec("nosuchaction=boom", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(fail::ConfigureFromSpec("missing.action", &err));
  EXPECT_FALSE(fail::ConfigureFromSpec("x=error@2in3", &err));
  EXPECT_FALSE(fail::ConfigureFromSpec("x=error@1in0", &err));
  EXPECT_FALSE(fail::ConfigureFromSpec("=error", &err));
  EXPECT_FALSE(fail::ConfigureFromSpec("x=delay:5", &err));
}

TEST(Failpoint, ConfigureFromEnvIsTheOptIn) {
  FailpointGuard guard;
  ::setenv("TFI_FAILPOINTS", "env.site=error", 1);
  // Merely setting the env arms nothing...
  EXPECT_FALSE(fail::FailHere("env.site"));
  // ...the explicit call does.
  EXPECT_EQ(fail::ConfigureFromEnv(), 1);
  EXPECT_TRUE(fail::FailHere("env.site"));
  ::unsetenv("TFI_FAILPOINTS");
  EXPECT_EQ(fail::ConfigureFromEnv(), 0);
}

TEST(Failpoint, AtomicWriteSeamErrorReturns) {
  FailpointGuard guard;
  fail::Configure("fs.atomic_write", {fail::Action::kError});
  const fs::path path = fs::temp_directory_path() / "tfi_fp_atomic.txt";
  std::string error;
  EXPECT_FALSE(AtomicWriteFile(path, "payload", &error));
  EXPECT_NE(error.find("failpoint"), std::string::npos);
  EXPECT_FALSE(fs::exists(path));
  fail::Reset();
  ASSERT_TRUE(AtomicWriteFile(path, "payload", &error)) << error;
  fs::remove(path);
}

TEST(Failpoint, CacheStoreRetriesAbsorbTransientFailure) {
  FailpointGuard guard;
  ScopedCacheDir cache("tfi_fp_cache_retry");
  const CampaignSpec spec = SmallCampaign(4);
  CampaignResult r;
  r.spec = spec;
  r.trials.resize(4);

  // Every other attempt fails: attempt 1 hits the failpoint, the backoff
  // retry succeeds — no failure surfaces.
  obs::MetricsRegistry metrics;
  fail::Configure("cache.store", {fail::Action::kError, /*one_in=*/2});
  EXPECT_TRUE(StoreCachedCampaign(r, &metrics));
  EXPECT_EQ(metrics.GetCounter("campaign.cache.store_failures").value(), 0u);
  EXPECT_TRUE(LoadCachedCampaign(spec).has_value());
  EXPECT_GE(fail::FireCount("cache.store"), 1u);

  // A persistent failure exhausts all attempts and is counted.
  fail::Configure("cache.store", {fail::Action::kError});
  EXPECT_FALSE(StoreCachedCampaign(r, &metrics));
  EXPECT_EQ(metrics.GetCounter("campaign.cache.store_failures").value(), 1u);
}

TEST(Failpoint, CacheAndCheckpointLoadFailuresDegradeToMiss) {
  FailpointGuard guard;
  ScopedCacheDir cache("tfi_fp_cache_load");
  const CampaignSpec spec = SmallCampaign(4);
  CampaignResult r;
  r.spec = spec;
  r.trials.resize(4);
  ASSERT_TRUE(StoreCachedCampaign(r));

  fail::Configure("cache.load", {fail::Action::kError});
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());
  fail::Reset();
  EXPECT_TRUE(LoadCachedCampaign(spec).has_value());
}

TEST(Failpoint, JsonlSinkDisablesItselfOnWriteFailure) {
  FailpointGuard guard;
  // The sink hits the write failpoint on its first event, marks the stream
  // failed, and silences itself; later events don't reach the stream.
  fail::Configure("events.jsonl.write", {fail::Action::kError, 1, /*limit=*/1});
  std::ostringstream os;
  obs::JsonlEventSink sink(os);
  const std::string header = os.str();
  EXPECT_FALSE(header.empty());

  obs::Event e;
  e.kind = obs::EventKind::kGoldenDone;
  sink.OnEvent(e);
  EXPECT_TRUE(sink.disabled());
  const std::string after_first = os.str();
  sink.OnEvent(e);
  EXPECT_EQ(os.str(), after_first);  // nothing further written
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
