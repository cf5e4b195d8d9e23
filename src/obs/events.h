// Structured campaign event journal: every campaign-level happening
// (start/finish, golden recorded, cache hit/store, per-trial completion with
// outcome and wall time, quarantine) becomes one typed Event, delivered
// by Emit() to every attached EventSink on the emitting thread, under the
// journal's one mutex. Nothing is queued and nothing is dropped: the stream
// is lossless and monotone in ts_us (stamped under the same mutex). A slow
// sink makes the emitting trial worker wait; it never loses an event. Sinks
// cost microseconds per event against milliseconds per trial, so that wait
// does not show in campaign wall time (BM_CampaignTrialsTelemetry).
//
// Consumers subscribe as EventSinks. The shipped sinks:
//   * JsonlEventSink — one JSON object per line after a schema_version
//     header; the on-disk wire format of `tfi campaign --events-jsonl`.
//   * ProgressSink   — the `--progress` stderr lines (monotonic trials/sec,
//     ETA, final summary line).
//   * ChromeLaneSink — the campaign lane of a chrome trace: trial spans and
//     an instant marker per quarantine.
//
// Determinism: the journal is pure telemetry. Campaign trial records,
// classification counts and cache keys are byte-identical with the journal
// attached or absent, at any --jobs value (pinned by tests/test_telemetry).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
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
  kTrialQuarantine,   // the trial threw (or an invariant tripped); detail=why
  kCampaignFinish,    // value=trials kept (the journal footer)
};
inline constexpr int kNumEventKinds = 7;
const char* EventKindName(EventKind k);

struct Event {
  EventKind kind = EventKind::kCampaignStart;
  std::uint64_t ts_us = 0;  // microseconds since journal creation (monotonic;
                            // stamped by Emit under the journal lock)
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
};

// Renders one event as a compact JSON object (no trailing newline).
std::string RenderEventJson(const Event& e);

// The JSONL header line: {"type":"header","schema_version":...,
// "generated_at":...}. `generated_at` defaults to the current wall clock;
// tests pass a fixed timestamp for byte-stable output.
std::string RenderJournalHeader(std::string_view generated_at = {});

// A journal consumer. OnEvent runs on the emitting thread (a trial worker
// for trial events) under the journal's lock, so sinks need no locking of
// their own; keep it quick, since every emitter waits for it.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const Event& e) = 0;
};

class EventJournal {
 public:
  EventJournal() = default;
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  // Sinks may be added/removed between campaigns (RunSuite reuses one
  // journal; each campaign attaches its own progress sink). Thread-safe; a
  // removed sink receives nothing further and may be destroyed at once.
  void AddSink(EventSink* sink);
  void RemoveSink(EventSink* sink);

  // Stamps e.ts_us and hands the event to every sink before returning.
  // Callable from any thread; concurrent emitters take turns.
  void Emit(Event e);

  // No-op kept for tfbench/pass.cpp: Emit delivers before it returns.
  void Flush() {}
  // Always 0, kept for tfbench/pass.cpp: the journal drops no event.
  std::uint64_t dropped() const { return 0; }

  std::uint64_t emitted() const;

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  mutable std::mutex mu_;
  std::vector<EventSink*> sinks_;
  std::uint64_t emitted_ = 0;
};

// Writes the journal to a stream as JSONL: header line at construction,
// then one line per event. The stream must outlive the sink; the sink
// flushes the stream on campaign finish so a killed process leaves a journal
// that is complete up to its last finished campaign. A stream write failure
// (disk full, yanked volume) disables the sink for the rest of the run with
// a single stderr warning — the campaign continues without its journal file
// rather than wedging or spamming.
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
// ts_us - dur_us on the journal clock, and one instant marker per
// quarantine. Cached trials emit no kTrialDone and get no span. The writer
// is not thread-safe; the golden run fills the pipeline lane from the
// campaign thread before any trial event exists, and the journal lock
// serialises the trial workers' deliveries.
class ChromeLaneSink : public EventSink {
 public:
  // Names both lanes; call before golden recording starts.
  explicit ChromeLaneSink(ChromeTraceWriter& chrome);
  void OnEvent(const Event& e) override;

 private:
  ChromeTraceWriter& chrome_;
  std::set<int> named_;  // worker rows that have a thread name
};

}  // namespace tfsim::obs
