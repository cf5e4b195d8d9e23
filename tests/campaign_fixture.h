// Shared helpers for the campaign-level tests: the small gzip campaign most
// of them run, quiet live options, a private results-cache directory, a
// stream buffer that fails like a full disk and a collector of per-trial
// journal payloads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <tuple>
#include <vector>

#include "inject/cache.h"
#include "inject/campaign.h"
#include "obs/events.h"

namespace tfsim {

// A gzip campaign over a short golden run: 12000 warmup cycles, three
// checkpoints 500 cycles apart, a 4000-cycle observation window.
inline CampaignSpec SmallCampaign(int trials) {
  CampaignSpec spec;
  spec.workload = "gzip";
  spec.trials = trials;
  spec.golden.warmup = 12000;
  spec.golden.points = 3;
  spec.golden.spacing = 500;
  spec.golden.window = 4000;
  spec.golden.slack = 1000;
  return spec;
}

// Live execution without stderr notes: the results cache is neither read
// nor written, so the trials actually run.
inline CampaignOptions QuietLive() {
  CampaignOptions opt;
  opt.verbose = false;
  opt.use_cache = false;
  return opt;
}

// Points TFI_CACHE_DIR at a fresh directory under the system temp dir for
// the object's lifetime, then deletes it and restores the previous value.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& name)
      : dir_((std::filesystem::temp_directory_path() / name).string()) {
    if (const char* old = std::getenv("TFI_CACHE_DIR")) previous_ = old;
    std::filesystem::remove_all(dir_);
    ::setenv("TFI_CACHE_DIR", dir_.c_str(), 1);
  }
  ~ScopedCacheDir() {
    std::filesystem::remove_all(dir_);
    if (previous_)
      ::setenv("TFI_CACHE_DIR", previous_->c_str(), 1);
    else
      ::unsetenv("TFI_CACHE_DIR");
  }
  ScopedCacheDir(const ScopedCacheDir&) = delete;
  ScopedCacheDir& operator=(const ScopedCacheDir&) = delete;

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::optional<std::string> previous_;
};

// Where `spec`'s results-cache entry lives under the current TFI_CACHE_DIR.
inline std::string CachePath(const CampaignSpec& spec) {
  return (std::filesystem::path(CacheDir()) / (spec.CacheKey() + ".txt"))
      .string();
}

// An unbuffered stream buffer that accepts `budget` bytes and then fails
// every write, as a full disk does. `offered()` counts the bytes the
// stream tried to write, failed ones included.
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::size_t budget) : budget_(budget) {}
  std::size_t offered() const { return offered_; }

 protected:
  int_type overflow(int_type c) override {
    ++offered_;
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    return traits_type::not_eof(c);
  }

 private:
  std::size_t budget_;
  std::size_t offered_ = 0;
};

// A kTrialDone payload minus wall time, worker and the trace-only
// latencies: trial, outcome, mode, category, storage, field, field_bits,
// cycles.
using TrialDonePayload =
    std::tuple<std::int64_t, Outcome, FailureMode, StateCat, Storage,
               std::string, std::uint64_t, std::uint32_t>;

// Collects kTrialDone payloads on the emitting trial workers.
class TrialDoneSink : public obs::EventSink {
 public:
  void OnEvent(const obs::Event& e) override {
    if (e.kind != obs::EventKind::kTrialDone) return;
    std::lock_guard<std::mutex> lock(mu_);
    payloads_.emplace_back(e.trial, e.outcome, e.mode, e.cat, e.storage,
                           e.field, e.field_bits, e.cycles);
  }
  // Sorted by trial index; call after RunCampaign returned.
  std::vector<TrialDonePayload> Sorted() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TrialDonePayload> out = payloads_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<TrialDonePayload> payloads_;
};

// Readable gtest diagnostics for record comparisons.
inline void PrintTo(const TrialRecord& r, std::ostream* os) {
  *os << OutcomeName(r.outcome) << '/' << FailureModeName(r.mode) << ' '
      << StateCatName(r.cat) << (r.storage == Storage::kRam ? " ram" : " latch")
      << " @" << r.cycles << " vi=" << r.valid_instrs << " if=" << r.inflight;
}

}  // namespace tfsim
