// Per-StateRegistry-field vulnerability heatmap: outcome and failure-mode
// counts plus propagation-latency histograms, aggregated per injected field
// (name/category/storage-class). This generalizes the paper's Figure 8 —
// per-*category* contribution to failures — down to field granularity: the
// category rollup of this aggregator reproduces Figure 8's ordering, and the
// per-field cells show *which structure inside* a category carries its
// vulnerability.
//
// Inputs are one Sample per trial: the injection site (from the registry's
// BitLocation for the trial's bit index) joined with the trial record, and —
// when the campaign collected propagation traces — the first-spread /
// arch-divergence latencies from the trace.
//
// Determinism: cells hold only integer counts and sums (no floating-point
// accumulation), keyed by field name in a sorted map, so aggregating the
// same trials in any order — at any --jobs value, from a live or a cached
// CampaignResult — renders byte-identical JSON/CSV.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "inject/outcome.h"

namespace tfsim::obs {

class VulnerabilityHeatmap {
 public:
  // Latency histograms: fixed linear buckets + overflow, in cycles.
  static constexpr std::uint64_t kLatencyBucketWidth = 64;
  static constexpr std::size_t kLatencyBuckets = 32;
  // Sentinel for "campaign did not trace propagation" (vs -1 = traced and
  // observed silent for the whole window).
  static constexpr std::int64_t kNotTraced = -2;

  struct Sample {
    std::string field;  // registry field name of the injected bit
    StateCat cat = StateCat::kCtrl;
    Storage storage = Storage::kLatch;
    std::uint64_t field_bits = 0;  // injectable bits of the field
    Outcome outcome = Outcome::kGrayArea;
    FailureMode mode = FailureMode::kNoFailure;
    std::uint32_t cycles = 0;  // cycles to classification
    std::int64_t arch_divergence_cycle = kNotTraced;
    std::int64_t first_spread_cycle = kNotTraced;
  };

  // One latency distribution: integer count/sum/min/max plus fixed buckets
  // (order-independent, so the export is deterministic at any job count).
  struct Latency {
    std::uint64_t n = 0;        // trials with an observed (>= 0) latency
    std::uint64_t silent = 0;   // traced trials that never exhibited it
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kLatencyBuckets + 1> buckets{};

    void Add(std::int64_t cycle);
    double Mean() const {
      return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
    }
  };

  struct Cell {
    StateCat cat = StateCat::kCtrl;
    Storage storage = Storage::kLatch;
    std::uint64_t bits = 0;
    std::uint64_t trials = 0;
    std::array<std::uint64_t, kNumOutcomes> outcomes{};
    std::array<std::uint64_t, kNumFailureModes> modes{};
    Latency arch_divergence;
    Latency first_spread;

    // SDC + Terminated trials (the paper's failure count).
    std::uint64_t Failures() const;
  };

  void Add(const Sample& s);

  std::uint64_t trials() const { return trials_; }
  std::uint64_t failures() const;
  const std::map<std::string, Cell>& cells() const { return cells_; }

  // Figure 8 rollup: per-category (trials, failures), ordered by failures
  // descending (ties by category name ascending) — the canonical
  // "contribution to failures" ordering the acceptance test compares
  // against `tfi figures fig8`.
  struct CategoryShare {
    StateCat cat = StateCat::kCtrl;
    std::uint64_t trials = 0;
    std::uint64_t failures = 0;
  };
  std::vector<CategoryShare> CategoryContributions() const;

  // Canonical JSON export: schema_version/generated_at header fields, the
  // sorted per-field cells, and the category rollup. `generated_at` empty =
  // current wall clock (tests pass a fixed stamp for byte-stable goldens).
  void WriteJson(std::ostream& os, std::string_view workload = {},
                 std::string_view generated_at = {}) const;

  // CSV flattening of the same cells, one row per field.
  void WriteCsv(std::ostream& os) const;

 private:
  std::map<std::string, Cell> cells_;
  std::uint64_t trials_ = 0;
};

}  // namespace tfsim::obs
