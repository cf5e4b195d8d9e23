// Structured campaign event journal: every campaign-level happening
// (start/finish, golden recorded, cache hit/store, per-trial completion with
// outcome and wall time, retry/quarantine) becomes one typed Event, pushed into a bounded in-memory
// queue and drained by a dedicated writer thread. Trial workers therefore
// never perform journal I/O, and Emit() never blocks: when the queue is full
// behind a slow sink, the oldest queued event is dropped and counted
// (dropped(); surfaced as `events_dropped` on the campaign_finish footer and
// the campaign.events.dropped metric) — telemetry loss is bounded and
// observable, but it can never stall trial execution.
//
// Consumers subscribe as EventSinks and run on the drain thread, in emit
// order (event timestamps are assigned under the queue lock, so the stream
// is monotone in ts_us). The shipped sinks:
//   * JsonlEventSink — one JSON object per line after a schema_version
//     header; the on-disk wire format of `tfi campaign --events-jsonl`.
//   * ProgressSink   — the `--progress` stderr lines (monotonic trials/sec,
//     ETA, final summary line).
//   * ChromeLaneSink — the campaign lane of a chrome trace: trial spans and
//     instant markers for retries and quarantines.
//
// Determinism: the journal is pure telemetry. Campaign trial records,
// classification counts and cache keys are byte-identical with the journal
// attached or absent, at any --jobs value (pinned by tests/test_telemetry).
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "inject/outcome.h"

namespace tfsim::obs {

class ChromeTraceWriter;

enum class EventKind : std::uint8_t {
  kCampaignStart,     // detail=cache key, field=workload, value=planned trials
  kGoldenDone,        // golden run recorded; value=checkpoints
  kCacheHit,          // results loaded from the on-disk cache; value=trials
  kCacheStore,        // completed results stored; value=trials
  kTrialDone,         // one trial classified; full injection-site payload
  kTrialRetry,        // an execution attempt threw; value=attempt, detail=why
  kTrialQuarantine,   // all attempts failed (or an invariant tripped)
  kCampaignFinish,    // value=trials kept; dropped=events shed by the queue
                      // (the journal footer)
};
inline constexpr int kNumEventKinds = 8;
const char* EventKindName(EventKind k);

struct Event {
  EventKind kind = EventKind::kCampaignStart;
  std::uint64_t ts_us = 0;  // microseconds since journal creation (monotonic;
                            // stamped by Emit under the queue lock)
  std::int64_t trial = -1;  // trial index, -1 when not trial-scoped

  // Trial payload (kTrialDone; also cat/storage defaults elsewhere).
  Outcome outcome = Outcome::kGrayArea;
  FailureMode mode = FailureMode::kNoFailure;
  StateCat cat = StateCat::kCtrl;
  Storage storage = Storage::kLatch;
  std::uint32_t cycles = 0;       // cycles to classification
  std::uint64_t dur_us = 0;       // trial wall time
  int worker = 0;                 // executing worker (not rendered to JSONL)
  std::string field{};            // injected registry field (kTrialDone) or
                                  // workload name (kCampaignStart)
  std::uint64_t field_bits = 0;   // injectable bits of that field
  // Propagation latencies joined from the trial's trace when the campaign
  // collects prop traces; kNotTraced otherwise (-1 = observed silent).
  static constexpr std::int64_t kNotTraced = -2;
  std::int64_t arch_divergence_cycle = kNotTraced;
  std::int64_t first_spread_cycle = kNotTraced;

  // Generic payload (see the per-kind notes above).
  std::uint64_t value = 0;
  std::string detail{};
  std::uint64_t dropped = 0;   // kCampaignFinish only: queue drops this run
};

// Renders one event as a compact JSON object (no trailing newline).
std::string RenderEventJson(const Event& e);

// The JSONL header line: {"type":"header","schema_version":...,
// "generated_at":...}. `generated_at` defaults to the current wall clock;
// tests pass a fixed timestamp for byte-stable output.
std::string RenderJournalHeader(std::string_view generated_at = {});

// A journal consumer. OnEvent runs on the journal's drain thread; keep it
// quick (it is off the trial workers' path, but a slow sink delays every
// other sink and the Flush() at campaign end).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const Event& e) = 0;
};

class EventJournal {
 public:
  // `capacity` bounds the in-flight event queue. When an Emit finds it full
  // (a slow sink fell behind), the OLDEST queued event is dropped and
  // counted — emitters never block, so telemetry can never stall trials.
  explicit EventJournal(std::size_t capacity = 4096);
  ~EventJournal();  // drains outstanding events, stops the writer thread
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  // Sinks may be added/removed between campaigns (RunSuite reuses one
  // journal; each campaign attaches its own progress sink). Thread-safe.
  // RemoveSink additionally waits out any in-flight delivery, so the sink
  // may be destroyed the moment it returns.
  void AddSink(EventSink* sink);
  void RemoveSink(EventSink* sink);

  // Stamps e.ts_us and enqueues, dropping the oldest queued event when the
  // queue is full. Callable from any thread; never performs I/O and never
  // blocks on the calling thread.
  void Emit(Event e);

  // Blocks until the queue has drained and no sink delivery is in flight —
  // every surviving (non-dropped) event emitted so far has reached all
  // sinks. RunCampaign flushes before returning so the journal (and the
  // progress summary) is complete when the caller resumes.
  void Flush();

  // Monotonic microseconds since journal creation (the ts_us clock).
  std::uint64_t NowUs() const;

  std::uint64_t emitted() const;
  // Events shed by the drop-oldest overflow policy since construction.
  std::uint64_t dropped() const;

 private:
  void DrainLoop();

  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable drained_;
  std::deque<Event> queue_;
  std::vector<EventSink*> sinks_;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  bool in_flight_ = false;  // drain thread is inside sink OnEvent calls
  bool stop_ = false;
  std::thread drain_;
};

// Writes the journal to a stream as JSONL: header line at construction,
// then one line per event. The stream must outlive the sink; the sink
// flushes the stream on campaign finish so a killed process leaves a journal
// that is complete up to its last finished campaign. A stream write failure (disk full, yanked
// volume, `events.jsonl.write` failpoint) disables the sink for the rest of
// the run with a single stderr warning — the campaign continues without its
// journal file rather than wedging or spamming.
class JsonlEventSink : public EventSink {
 public:
  explicit JsonlEventSink(std::ostream& os, std::string_view generated_at = {});
  void OnEvent(const Event& e) override;

  // True once a write failure permanently silenced the sink.
  bool disabled() const { return disabled_; }

 private:
  std::ostream& os_;
  bool disabled_ = false;
};

// The --progress consumer: a throttled status line per second of trial
// completions plus an unconditional final summary.
// Rates use the journal's monotonic microsecond clock, so sub-second
// campaigns report a real trials/sec figure instead of zero.
class ProgressSink : public EventSink {
 public:
  // `label` prefixes every line (the campaign cache key). Lines go to `os`
  // (stderr in tfi; tests capture a stringstream).
  ProgressSink(std::string label, int total_trials, std::ostream& os);
  void OnEvent(const Event& e) override;

 private:
  void PrintLine(std::uint64_t ts_us, bool final_line);

  const std::string label_;
  const int total_;
  std::ostream& os_;
  std::uint64_t first_ts_us_ = 0;
  std::uint64_t last_line_us_ = 0;
  bool saw_trial_ = false;
  std::uint64_t done_ = 0;
  std::uint64_t from_cache_ = 0;
  std::array<std::uint64_t, kNumOutcomes> outcomes_{};
};

// The chrome trace's campaign lane (ChromeTraceWriter::kPidCampaign), drawn
// from the journal: one span per kTrialDone on its worker's row, starting at
// ts_us - dur_us on the journal clock, and one instant marker per retry or
// quarantine. Cached trials emit no kTrialDone and get no span; events shed
// to backpressure are missing here too. The writer is not
// thread-safe and the golden run fills the pipeline lane from the campaign
// thread, so the sink writes nothing before kGoldenDone, which is emitted
// once golden recording is over.
class ChromeLaneSink : public EventSink {
 public:
  // Names both lanes; call before golden recording starts.
  explicit ChromeLaneSink(ChromeTraceWriter& chrome);
  void OnEvent(const Event& e) override;

 private:
  ChromeTraceWriter& chrome_;
  bool live_ = false;   // kGoldenDone seen
  std::set<int> named_;  // worker rows that have a thread name
};

}  // namespace tfsim::obs
