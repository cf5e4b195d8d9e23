#include "obs/events.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/chrome_trace.h"
#include "obs/export_meta.h"
#include "obs/json_writer.h"

namespace tfsim::obs {

namespace {

const char* StorageName(Storage s) {
  return s == Storage::kLatch ? "latch" : s == Storage::kRam ? "ram"
                                                             : "background";
}

}  // namespace

const char* EventKindName(EventKind k) {
  switch (k) {
    case EventKind::kCampaignStart: return "campaign_start";
    case EventKind::kGoldenDone: return "golden_done";
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kCacheStore: return "cache_store";
    case EventKind::kTrialDone: return "trial_done";
    case EventKind::kTrialQuarantine: return "trial_quarantine";
    case EventKind::kCampaignFinish: return "campaign_finish";
  }
  return "unknown";
}

std::string RenderEventJson(const Event& e) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Field("ev", EventKindName(e.kind));
  w.Field("ts_us", e.ts_us);
  if (e.trial >= 0) w.Field("trial", e.trial);
  switch (e.kind) {
    case EventKind::kCampaignStart:
      w.Field("campaign", e.detail);
      w.Field("workload", e.field);
      w.Field("trials", e.value);
      break;
    case EventKind::kGoldenDone:
      w.Field("checkpoints", e.value);
      break;
    case EventKind::kCacheHit:
    case EventKind::kCacheStore:
      w.Field("trials", e.value);
      break;
    case EventKind::kTrialDone:
      w.Field("outcome", OutcomeName(e.outcome));
      w.Field("failure_mode", FailureModeName(e.mode));
      w.Field("category", StateCatName(e.cat));
      w.Field("storage", StorageName(e.storage));
      w.Field("field", e.field);
      w.Field("field_bits", e.field_bits);
      w.Field("cycles", static_cast<std::uint64_t>(e.cycles));
      w.Field("dur_us", e.dur_us);
      if (e.arch_divergence_cycle != Event::kNotTraced)
        w.Field("arch_divergence_cycle", e.arch_divergence_cycle);
      if (e.first_spread_cycle != Event::kNotTraced)
        w.Field("first_spread_cycle", e.first_spread_cycle);
      break;
    case EventKind::kTrialQuarantine:
      w.Field("error", e.detail);
      break;
    case EventKind::kCampaignFinish:
      w.Field("trials_kept", e.value);
      break;
  }
  w.End();
  return os.str();
}

std::string RenderJournalHeader(std::string_view generated_at) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Field("type", "header");
  w.Field("schema_version", kObsSchemaVersion);
  w.Field("generated_at",
          generated_at.empty() ? Rfc3339Now() : std::string(generated_at));
  w.End();
  return os.str();
}

// ---------------------------------------------------------------------------
// EventJournal
// ---------------------------------------------------------------------------

void EventJournal::AddSink(EventSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(sink);
}

void EventJournal::RemoveSink(EventSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

void EventJournal::Emit(Event e) {
  std::lock_guard<std::mutex> lock(mu_);
  // Stamp and deliver under one lock: the stream is monotone in ts_us.
  e.ts_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  ++emitted_;
  for (EventSink* s : sinks_) s->OnEvent(e);
}

std::uint64_t EventJournal::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

// ---------------------------------------------------------------------------
// JsonlEventSink
// ---------------------------------------------------------------------------

JsonlEventSink::JsonlEventSink(std::ostream& os, std::string_view generated_at)
    : os_(os) {
  os_ << RenderJournalHeader(generated_at) << '\n';
}

void JsonlEventSink::OnEvent(const Event& e) {
  if (disabled_) return;
  os_ << RenderEventJson(e) << '\n';
  // Keep the on-disk journal a complete prefix at every campaign boundary.
  if (e.kind == EventKind::kCampaignFinish) os_.flush();
  if (!os_) {
    // One warning, then silence: the campaign keeps running without its
    // journal file instead of failing or warning per event.
    disabled_ = true;
    std::fprintf(stderr,
                 "[events] journal write failed; disabling the JSONL sink "
                 "for the rest of the run\n");
  }
}

// ---------------------------------------------------------------------------
// ProgressSink
// ---------------------------------------------------------------------------

ProgressSink::ProgressSink(std::string label, int total_trials,
                           std::ostream& os)
    : label_(std::move(label)), total_(total_trials), os_(os) {}

void ProgressSink::PrintLine(std::uint64_t ts_us, bool final_line) {
  // Monotonic microsecond elapsed time; the max() keeps sub-millisecond
  // campaigns from dividing by (or reporting) zero.
  const double secs =
      static_cast<double>(std::max<std::uint64_t>(ts_us - first_ts_us_, 1)) *
      1e-6;
  const double rate = static_cast<double>(done_) / secs;
  char head[160];
  std::snprintf(head, sizeof(head),
                "[campaign %s] %llu/%d trials  %.1f trials/s",
                label_.c_str(), static_cast<unsigned long long>(done_), total_,
                rate);
  char mix[160];
  std::snprintf(
      mix, sizeof(mix), "  match=%llu term=%llu sdc=%llu gray=%llu err=%llu",
      static_cast<unsigned long long>(outcomes_[0]),
      static_cast<unsigned long long>(outcomes_[1]),
      static_cast<unsigned long long>(outcomes_[2]),
      static_cast<unsigned long long>(outcomes_[3]),
      static_cast<unsigned long long>(outcomes_[4]));
  os_ << head << mix;
  if (final_line) {
    os_ << "  [done in ";
    char secs_buf[32];
    std::snprintf(secs_buf, sizeof(secs_buf), "%.1fs", secs);
    os_ << secs_buf;
    if (from_cache_) os_ << ", cached";
    os_ << ']';
  } else if (rate > 0 && done_ < static_cast<std::uint64_t>(total_)) {
    char eta[32];
    std::snprintf(eta, sizeof(eta), "  eta %.0fs",
                  static_cast<double>(total_ - done_) / rate);
    os_ << eta;
  }
  os_ << '\n';
  os_.flush();
}

void ProgressSink::OnEvent(const Event& e) {
  switch (e.kind) {
    case EventKind::kCampaignStart:
      first_ts_us_ = e.ts_us;
      last_line_us_ = e.ts_us;
      break;
    case EventKind::kCacheHit:
      from_cache_ = e.value;
      break;
    case EventKind::kTrialDone:
      if (!saw_trial_) {
        saw_trial_ = true;
        if (first_ts_us_ == 0 && last_line_us_ == 0) {
          first_ts_us_ = e.ts_us;
          last_line_us_ = e.ts_us;
        }
      }
      ++done_;
      ++outcomes_[static_cast<int>(e.outcome)];
      if (e.ts_us - last_line_us_ >= 1000000) {
        last_line_us_ = e.ts_us;
        PrintLine(e.ts_us, /*final_line=*/false);
      }
      break;
    case EventKind::kCampaignFinish:
      // Cached trials never produced trial_done events; fold them in so the
      // summary reports the campaign's true completed count.
      if (e.value > done_) done_ = e.value;
      PrintLine(e.ts_us, /*final_line=*/true);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// ChromeLaneSink
// ---------------------------------------------------------------------------

ChromeLaneSink::ChromeLaneSink(ChromeTraceWriter& chrome) : chrome_(chrome) {
  chrome_.SetProcessName(ChromeTraceWriter::kPidPipeline,
                         "pipeline occupancy (golden run, 1us = 1 cycle)");
  chrome_.SetProcessName(ChromeTraceWriter::kPidCampaign,
                         "campaign trials (wall clock)");
}

void ChromeLaneSink::OnEvent(const Event& e) {
  constexpr int kPid = ChromeTraceWriter::kPidCampaign;
  if (e.kind == EventKind::kTrialDone) {
    if (named_.insert(e.worker).second)
      chrome_.SetThreadName(kPid, e.worker,
                            "trial worker " + std::to_string(e.worker));
    chrome_.CompleteEvent(OutcomeName(e.outcome), kPid, e.worker,
                          e.ts_us >= e.dur_us ? e.ts_us - e.dur_us : 0,
                          e.dur_us,
                          {{"category", StateCatName(e.cat)},
                           {"failure_mode", FailureModeName(e.mode)},
                           {"cycles", std::to_string(e.cycles)}});
    return;
  }
  if (e.kind != EventKind::kTrialQuarantine) return;
  chrome_.InstantEvent("trial quarantined", kPid, e.ts_us,
                       {{"trial", std::to_string(e.trial)},
                        {"error", e.detail}});
}

}  // namespace tfsim::obs
