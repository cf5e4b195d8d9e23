// Campaign telemetry: the event journal is pure observation. Attaching it
// (with any set of sinks) must leave trial records, classification counts
// and cache keys byte-identical at every --jobs value, and the journal
// itself must be a well-formed, monotone, complete event stream.
#include <gtest/gtest.h>

#include <cctype>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign_fixture.h"
#include "inject/campaign.h"
#include "obs/chrome_trace.h"
#include "obs/events.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace tfsim {
namespace {

// Collects every delivered event for post-run inspection. OnEvent runs on
// the emitting threads (trial workers included); reads happen only after
// RunCampaign returned, under the same mutex for rigor.
class CollectSink : public obs::EventSink {
 public:
  void OnEvent(const obs::Event& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(e);
  }
  std::vector<obs::Event> Events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<obs::Event> events_;
};

TEST(Telemetry, JournalOnOrOffLeavesResultsByteIdentical) {
  const CampaignSpec spec = SmallCampaign(24);
  CampaignOptions plain;
  plain.verbose = false;
  plain.use_cache = false;
  const CampaignResult baseline = RunCampaign(spec, plain);
  ASSERT_EQ(baseline.trials.size(), 24u);

  for (int jobs : {1, 4}) {
    obs::EventJournal journal;
    std::ostringstream jsonl;
    obs::JsonlEventSink file_sink(jsonl, "2026-01-01T00:00:00Z");
    journal.AddSink(&file_sink);
    obs::MetricsRegistry metrics;
    CampaignOptions opt;
    opt.verbose = false;
    opt.use_cache = false;
    opt.jobs = jobs;
    opt.obs.events = &journal;
    opt.obs.sinks.metrics = &metrics;
    const CampaignResult r = RunCampaign(spec, opt);
    journal.RemoveSink(&file_sink);
    EXPECT_EQ(r.trials, baseline.trials);
    EXPECT_EQ(r.ByOutcome(), baseline.ByOutcome());
    EXPECT_EQ(r.ByFailureMode(), baseline.ByFailureMode());
    EXPECT_EQ(r.spec.CacheKey(), baseline.spec.CacheKey());
    // And the journal accounted for every trial exactly once.
    std::size_t trial_done = 0;
    std::istringstream lines(jsonl.str());
    std::string line;
    while (std::getline(lines, line))
      if (line.find("\"ev\":\"trial_done\"") != std::string::npos)
        ++trial_done;
    EXPECT_EQ(trial_done, r.trials.size()) << "jobs=" << jobs;
  }
}

TEST(Telemetry, JsonlStreamIsWellFormedOrderedAndComplete) {
  const CampaignSpec spec = SmallCampaign(16);
  obs::EventJournal journal;
  std::ostringstream jsonl;
  obs::JsonlEventSink file_sink(jsonl, "2026-01-01T00:00:00Z");
  journal.AddSink(&file_sink);
  CollectSink collect;
  journal.AddSink(&collect);
  obs::MetricsRegistry metrics;
  CampaignOptions opt;
  opt.verbose = false;
  opt.use_cache = false;
  opt.jobs = 2;
  opt.obs.events = &journal;
  opt.obs.sinks.metrics = &metrics;
  const CampaignResult r = RunCampaign(spec, opt);
  journal.RemoveSink(&collect);
  journal.RemoveSink(&file_sink);

  // Every line is valid JSON; the first is the schema header.
  std::istringstream lines(jsonl.str());
  std::string line;
  std::vector<std::string> all;
  while (std::getline(lines, line)) all.push_back(line);
  ASSERT_FALSE(all.empty());
  EXPECT_NE(all.front().find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(all.front().find("\"schema_version\""), std::string::npos);
  for (const std::string& l : all) {
    std::string err;
    EXPECT_TRUE(obs::JsonLint(l, &err)) << err << "\n" << l;
  }
  // What `tfi campaign --events-jsonl` reports as written: every emitted
  // event reached the file.
  EXPECT_EQ(all.size() - 1, journal.emitted());
  EXPECT_NE(all.back().find("\"ev\":\"campaign_finish\""), std::string::npos);

  // The delivered event stream is monotone in ts_us, brackets the campaign,
  // and covers every trial index exactly once.
  const std::vector<obs::Event> events = collect.Events();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().kind, obs::EventKind::kCampaignStart);
  EXPECT_EQ(events.back().kind, obs::EventKind::kCampaignFinish);
  EXPECT_EQ(events.back().value, r.trials.size());
  std::uint64_t prev_ts = 0;
  std::vector<int> seen(r.trials.size(), 0);
  for (const obs::Event& e : events) {
    EXPECT_GE(e.ts_us, prev_ts);
    prev_ts = e.ts_us;
    if (e.kind == obs::EventKind::kTrialDone) {
      ASSERT_GE(e.trial, 0);
      ASSERT_LT(static_cast<std::size_t>(e.trial), seen.size());
      seen[static_cast<std::size_t>(e.trial)]++;
      EXPECT_EQ(e.outcome, r.trials[static_cast<std::size_t>(e.trial)].outcome);
      EXPECT_FALSE(e.field.empty());
      EXPECT_GT(e.field_bits, 0u);
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 1) << "trial " << i;
}

TEST(Telemetry, RetryAndQuarantineBecomeEvents) {
  const CampaignSpec spec = SmallCampaign(8);
  obs::EventJournal journal;
  CollectSink collect;
  journal.AddSink(&collect);
  CampaignOptions opt;
  opt.verbose = false;
  opt.use_cache = false;
  opt.obs.events = &journal;
  opt.trial_fault_hook = [](std::size_t i) {
    if (i == 3) throw std::runtime_error("injected host fault");
  };
  const CampaignResult r = RunCampaign(spec, opt);
  journal.RemoveSink(&collect);

  ASSERT_EQ(r.trials.size(), 8u);
  EXPECT_EQ(r.trials[3].outcome, Outcome::kTrialError);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].index, 3u);

  // The throwing trial is quarantined after its one attempt: one
  // quarantine event with the message, and no trial-scoped event but the
  // quarantine and one trial_done per trial.
  int quarantines = 0, done = 0;
  for (const obs::Event& e : collect.Events()) {
    if (e.kind == obs::EventKind::kTrialQuarantine) {
      ++quarantines;
      EXPECT_EQ(e.trial, 3);
      EXPECT_EQ(e.detail, "injected host fault");
    } else if (e.kind == obs::EventKind::kTrialDone) {
      ++done;
    } else {
      EXPECT_EQ(e.trial, -1) << obs::EventKindName(e.kind);
    }
  }
  EXPECT_EQ(quarantines, 1);
  EXPECT_EQ(done, 8);
}

TEST(Telemetry, ProgressSinkReportsRateAndFinalSummary) {
  std::ostringstream out;
  obs::ProgressSink sink("test_key", 3, out);
  obs::Event start;
  start.kind = obs::EventKind::kCampaignStart;
  start.ts_us = 100;
  sink.OnEvent(start);
  for (int i = 0; i < 3; ++i) {
    obs::Event e;
    e.kind = obs::EventKind::kTrialDone;
    e.trial = i;
    e.ts_us = 200 + static_cast<std::uint64_t>(i);
    e.outcome = i == 2 ? Outcome::kSdc : Outcome::kMicroArchMatch;
    sink.OnEvent(e);
  }
  obs::Event fin;
  fin.kind = obs::EventKind::kCampaignFinish;
  fin.ts_us = 500;  // 400us elapsed: a sub-second campaign
  fin.value = 3;
  sink.OnEvent(fin);
  const std::string s = out.str();
  EXPECT_NE(s.find("3/3 trials"), std::string::npos) << s;
  EXPECT_NE(s.find("match=2"), std::string::npos) << s;
  EXPECT_NE(s.find("sdc=1"), std::string::npos) << s;
  EXPECT_NE(s.find("[done in"), std::string::npos) << s;
  // The monotonic clock gives a real (huge) rate even under a second.
  EXPECT_EQ(s.find(" 0.0 trials/s"), std::string::npos) << s;
}

TEST(Telemetry, CacheHitPathStillBracketsTheJournal) {
  ScopedCacheDir cache("tfi_test_cache_telemetry");

  const CampaignSpec spec = SmallCampaign(10);
  CampaignOptions warm;
  warm.verbose = false;
  RunCampaign(spec, warm);  // populate the cache

  obs::EventJournal journal;
  CollectSink collect;
  journal.AddSink(&collect);
  CampaignOptions opt;
  opt.verbose = false;
  opt.obs.events = &journal;
  const CampaignResult r = RunCampaign(spec, opt);
  journal.RemoveSink(&collect);
  EXPECT_EQ(r.trials.size(), 10u);

  const std::vector<obs::Event> events = collect.Events();
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().kind, obs::EventKind::kCampaignStart);
  bool saw_hit = false;
  for (const obs::Event& e : events)
    saw_hit |= e.kind == obs::EventKind::kCacheHit && e.value == 10;
  EXPECT_TRUE(saw_hit);
  EXPECT_EQ(events.back().kind, obs::EventKind::kCampaignFinish);
  EXPECT_EQ(events.back().value, 10u);
}

// One campaign-lane event object of a chrome trace. ChromeTraceWriter
// writes name, ph, pid, tid, then ts and dur if any, so the lane's events
// (pid 2, ChromeTraceWriter::kPidCampaign) are found by a plain scan for
// that field order; ts and dur are empty when absent.
struct LaneEvent {
  std::string name;
  char ph = 0;
  std::string tid, ts, dur;
};

std::vector<LaneEvent> CampaignLaneEvents(const std::string& json) {
  // Consumes `lit` at `pos`, or leaves `pos` alone and returns false.
  auto eat = [&json](std::size_t& pos, std::string_view lit) {
    if (json.compare(pos, lit.size(), lit) != 0) return false;
    pos += lit.size();
    return true;
  };
  auto digits = [&json](std::size_t& pos) {
    const std::size_t start = pos;
    while (pos < json.size() &&
           std::isdigit(static_cast<unsigned char>(json[pos])))
      ++pos;
    return json.substr(start, pos - start);
  };
  constexpr std::string_view kOpen = R"({"name":")";
  std::vector<LaneEvent> out;
  for (std::size_t at = json.find(kOpen); at != std::string::npos;
       at = json.find(kOpen, at + 1)) {
    std::size_t pos = at + kOpen.size();
    const std::size_t name_end = json.find('"', pos);
    if (name_end == std::string::npos) break;
    LaneEvent e;
    e.name = json.substr(pos, name_end - pos);
    pos = name_end;
    if (!eat(pos, R"(","ph":")") || pos >= json.size()) continue;
    e.ph = json[pos++];
    if (!eat(pos, R"(","pid":2,"tid":)")) continue;
    e.tid = digits(pos);
    if (e.tid.empty()) continue;
    if (eat(pos, R"(,"ts":)")) e.ts = digits(pos);
    if (eat(pos, R"(,"dur":)")) e.dur = digits(pos);
    out.push_back(std::move(e));
  }
  return out;
}

// The chrome campaign lane is drawn from the event journal. A campaign run
// with a chrome writer at --jobs 2 and a throwing fault hook must show one
// span per trial, one marker per journal quarantine, and a thread name on
// every worker row it used.
TEST(Telemetry, ChromeLaneDerivesFromTheJournal) {
  const CampaignSpec spec = SmallCampaign(30);
  obs::ChromeTraceWriter chrome;
  obs::EventJournal journal;
  CollectSink collect;
  journal.AddSink(&collect);
  CampaignOptions opt;
  opt.verbose = false;
  opt.use_cache = false;
  opt.jobs = 2;
  opt.obs.sinks.chrome = &chrome;
  opt.obs.events = &journal;
  opt.trial_fault_hook = [](std::size_t i) {  // the last trial throws
    if (i == 29) throw std::runtime_error("host fault");
  };
  const CampaignResult r = RunCampaign(spec, opt);
  journal.RemoveSink(&collect);
  ASSERT_EQ(r.trials.size(), 30u);

  std::ostringstream os;
  chrome.WriteTo(os);
  const std::string json = os.str();
  std::vector<std::pair<std::string, std::string>> markers, expected;
  std::set<std::string> span_rows, named_rows;
  std::size_t spans = 0;
  for (const LaneEvent& e : CampaignLaneEvents(json)) {
    if (e.ph == 'X') {
      ++spans;
      span_rows.insert(e.tid);
      EXPECT_FALSE(e.ts == "0" && e.dur == "0") << "phantom span " << e.name;
    }
    if (e.ph == 'I') markers.emplace_back(e.name, e.ts);
    if (e.ph == 'M' && e.name == "thread_name") named_rows.insert(e.tid);
  }
  EXPECT_EQ(spans, 30u);

  for (const obs::Event& e : collect.Events())
    if (e.kind == obs::EventKind::kTrialQuarantine)
      expected.emplace_back("trial quarantined", std::to_string(e.ts_us));
  EXPECT_EQ(expected.size(), 1u);
  EXPECT_EQ(markers, expected);
  ASSERT_FALSE(span_rows.empty());
  for (const std::string& row : span_rows) EXPECT_TRUE(named_rows.count(row));
  // The golden run's pipeline occupancy counters share the file.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  std::string err;
  EXPECT_TRUE(obs::JsonLint(json, &err)) << err;
}

TEST(Telemetry, MetricsExportCarriesSchemaVersionDeterministically) {
  obs::MetricsRegistry m;
  m.GetCounter("a").Inc(2);
  std::ostringstream det1, det2, timed;
  m.WriteJson(det1, /*include_timers=*/false);
  m.WriteJson(det2, /*include_timers=*/false);
  m.WriteJson(timed, /*include_timers=*/true);
  // schema_version always; generated_at (wall clock) only with timers, so
  // the deterministic export stays byte-stable.
  EXPECT_EQ(det1.str(), det2.str());
  EXPECT_NE(det1.str().find("\"schema_version\""), std::string::npos);
  EXPECT_EQ(det1.str().find("\"generated_at\""), std::string::npos);
  EXPECT_NE(timed.str().find("\"generated_at\""), std::string::npos);
}

}  // namespace
}  // namespace tfsim
