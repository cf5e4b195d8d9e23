// Lightweight metrics registry for the simulator's observability layer.
//
// Three instrument kinds, all allocation-free on the hot path:
//   * Counter   — monotonically increasing u64 (squashes, replays, misses,
//                 cache hits, trials by outcome).
//   * Histogram — linear fixed-width buckets plus a RunningStat summary
//                 (mean/min/max/stddev); used for per-cycle structure
//                 occupancies and per-trial latency distributions.
//   * Timer     — accumulated wall-clock nanoseconds + start count; used
//                 for campaign phase timing and the trials/sec figure.
//
// Pipeline code holds raw Counter*/Histogram* handles resolved once at
// registration, so a sample is one pointer dereference and an add. Handles
// are stable for the registry's lifetime (instruments are never removed).
//
// Counters and histograms are pure functions of simulated execution, so two
// identical runs export byte-identical counter/histogram sections — a
// property the test suite pins down. Timers are wall-clock and therefore
// excluded from the deterministic portion of the export.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "util/stats.h"

namespace tfsim::obs {

class Counter {
 public:
  void Inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Histogram {
 public:
  // `bucket_width` sim-units per bucket, `buckets` buckets; samples at or
  // beyond the last edge land in the overflow bucket.
  Histogram(std::uint64_t bucket_width, std::size_t buckets)
      : width_(bucket_width ? bucket_width : 1), counts_(buckets + 1, 0) {}

  void Add(std::uint64_t v) {
    stat_.Add(static_cast<double>(v));
    const std::size_t b = static_cast<std::size_t>(v / width_);
    counts_[b < counts_.size() - 1 ? b : counts_.size() - 1]++;
  }

  const RunningStat& stat() const { return stat_; }
  std::uint64_t bucket_width() const { return width_; }
  // Bucket counts; the final entry is the overflow bucket.
  const std::vector<std::uint64_t>& counts() const { return counts_; }

 private:
  RunningStat stat_;
  std::uint64_t width_;
  std::vector<std::uint64_t> counts_;
};

class Timer {
 public:
  void Start() { start_ = Clock::now(); }
  void Stop() {
    total_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
    ++count_;
  }
  std::uint64_t total_ns() const { return total_ns_; }
  std::uint64_t count() const { return count_; }
  double Seconds() const { return static_cast<double>(total_ns_) * 1e-9; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_{};
  std::uint64_t total_ns_ = 0;
  std::uint64_t count_ = 0;
};

// RAII convenience for Timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& t) : t_(t) { t_.Start(); }
  ~ScopedTimer() { t_.Stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& t_;
};

class MetricsRegistry {
 public:
  // Instruments are created on first use and returned by stable reference
  // afterwards (the shape arguments of an existing histogram are kept).
  Counter& GetCounter(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          std::uint64_t bucket_width = 1,
                          std::size_t buckets = 64);
  Timer& GetTimer(const std::string& name);

  // Exports the registry as one JSON object with "counters", "histograms"
  // and (when `include_timers`) "timers" sections, keys sorted by name.
  // Stamped with schema_version, plus an RFC3339 generated_at when timers
  // are included (the timestamp is wall-clock like the timers, so the
  // timer-less export remains byte-deterministic across identical runs).
  void WriteJson(std::ostream& os, bool include_timers = true) const;

 private:
  // std::map keeps the export deterministically name-sorted; unique_ptr
  // keeps handed-out instrument pointers stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

}  // namespace tfsim::obs
