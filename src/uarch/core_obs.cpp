// Observability hooks of the detailed core: per-cycle occupancy sampling
// into the metrics registry and the chrome-trace pipeline lane, plus the
// CoreStats counter flush. Kept out of core.cpp so the hot pipeline file
// does not depend on the obs implementation headers.
#include "check/invariants.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "uarch/core.h"

namespace tfsim {

namespace {

// One chrome occupancy sample every this many cycles: the tracks are dense,
// and sampling keeps trace files viewable.
constexpr std::uint64_t kChromeSampleEvery = 64;

}  // namespace

void Core::AttachObs(const obs::ObsSinks* obs) {
  obs_ = obs && obs->Any() ? obs : nullptr;
  h_fq_ = h_sched_ = h_rob_ = h_lq_ = h_sq_ = h_mshr_ = h_inflight_ = nullptr;
  c_viol_.clear();
  obs_flushed_ = CoreStats{};
  if (!obs_ || !obs_->metrics) return;
  obs::MetricsRegistry& m = *obs_->metrics;
  if (checker_) {
    c_viol_.resize(check::kNumInvariantKinds, nullptr);
    for (int k = 0; k < check::kNumInvariantKinds; ++k)
      c_viol_[static_cast<std::size_t>(k)] = &m.GetCounter(
          std::string("check.violations.") +
          check::InvariantKindName(static_cast<check::InvariantKind>(k)));
  }
  // Bucket shapes sized to each structure's *configured* capacity so the
  // histograms read directly as occupancy distributions at any geometry
  // (16 resolution buckets per structure; width 1 below 16 entries).
  const auto occ_width = [](int capacity) {
    return static_cast<std::uint64_t>(capacity >= 16 ? capacity / 16 : 1);
  };
  h_fq_ = &m.GetHistogram("pipe.fetchq.occupancy", occ_width(cfg_.fetch_queue),
                          17);
  h_sched_ = &m.GetHistogram("pipe.scheduler.occupancy",
                             occ_width(cfg_.sched_entries), 17);
  h_rob_ = &m.GetHistogram("pipe.rob.occupancy", occ_width(cfg_.rob_entries),
                           17);
  h_lq_ = &m.GetHistogram("pipe.lq.occupancy", occ_width(cfg_.lq_entries), 17);
  h_sq_ = &m.GetHistogram("pipe.sq.occupancy", occ_width(cfg_.sq_entries), 17);
  h_mshr_ = &m.GetHistogram("pipe.dcache.mshrs_in_use", occ_width(cfg_.mshrs),
                            9);
  h_inflight_ = &m.GetHistogram("pipe.inflight", occ_width(cfg_.MaxInFlight()),
                                18);
}

void Core::ObsCountViolations() {
  if (c_viol_.empty()) return;
  for (const check::InvariantKind k : checker_->last_kinds())
    c_viol_[static_cast<std::size_t>(k)]->Inc();
}

void Core::ObsSample() {
  const std::uint64_t fq = fetch_.FqCount();
  const std::uint64_t sched = static_cast<std::uint64_t>(sched_.Occupancy());
  const std::uint64_t rob = rob_.Count();
  const std::uint64_t lq = lsq_.lq_count.Get(0);
  const std::uint64_t sq = lsq_.sq_count.Get(0);
  const std::uint64_t mshr = static_cast<std::uint64_t>(dcache_.MshrsInUse());
  if (h_fq_) {
    h_fq_->Add(fq);
    h_sched_->Add(sched);
    h_rob_->Add(rob);
    h_lq_->Add(lq);
    h_sq_->Add(sq);
    h_mshr_->Add(mshr);
    h_inflight_->Add(InFlight());
  }
  if (obs_->chrome && stats_.cycles % kChromeSampleEvery == 0) {
    obs_->chrome->CounterEvent(
        "occupancy", obs::ChromeTraceWriter::kPidPipeline, stats_.cycles,
        {{"fetchq", static_cast<double>(fq)},
         {"scheduler", static_cast<double>(sched)},
         {"rob", static_cast<double>(rob)},
         {"lq", static_cast<double>(lq)},
         {"sq", static_cast<double>(sq)},
         {"mshrs", static_cast<double>(mshr)}});
  }
}

void Core::FlushObsCounters() {
  if (!obs_ || !obs_->metrics) return;
  obs::MetricsRegistry& m = *obs_->metrics;
  const CoreStats& s = stats_;
  const CoreStats& f = obs_flushed_;
  m.GetCounter("pipe.cycles").Inc(s.cycles - f.cycles);
  m.GetCounter("pipe.retired").Inc(s.retired - f.retired);
  m.GetCounter("pipe.fetch.branches").Inc(s.branches - f.branches);
  m.GetCounter("pipe.fetch.mispredicts").Inc(s.mispredicts - f.mispredicts);
  m.GetCounter("pipe.lsq.loads").Inc(s.loads - f.loads);
  m.GetCounter("pipe.dcache.misses").Inc(s.dcache_misses - f.dcache_misses);
  m.GetCounter("pipe.scheduler.replays").Inc(s.replays - f.replays);
  m.GetCounter("pipe.lsq.order_violations")
      .Inc(s.order_violations - f.order_violations);
  m.GetCounter("pipe.rob.full_flushes").Inc(s.full_flushes - f.full_flushes);
  m.GetCounter("pipe.rob.timeout_flushes")
      .Inc(s.timeout_flushes - f.timeout_flushes);
  m.GetCounter("pipe.rob.parity_flushes")
      .Inc(s.parity_flushes - f.parity_flushes);
  obs_flushed_ = s;
}

}  // namespace tfsim
