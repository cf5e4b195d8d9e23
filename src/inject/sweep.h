// Microarchitecture geometry sensitivity sweeps: one binary, any core shape.
//
// The paper characterizes per-structure vulnerability at one fixed
// Alpha-21264-class geometry; "Not All Faults Are Equal" (PAPERS.md) shows
// AVF is a strong function of structure *sizing*. This layer makes
// CoreConfig geometry a first-class sweep axis: a named SweepSpec expands
// into per-point CampaignSpecs (ROB depth, scheduler entries, LQ/SQ depth,
// physical registers, fetch/retire width), each run through the ordinary
// campaign machinery — the per-point results cache (an interrupted sweep
// reruns only the points not yet cached) and byte-identical records at any
// --jobs value carry over unchanged.
//
// Each point joins two views of the same machine:
//   * per-structure outcome distributions, BuildHeatmap's per-field cells
//     summed by structure (field name prefix = structure), and
//   * golden-run occupancy metrics (pipe.*.occupancy histogram means, the
//     PR 1/PR 6 instrumentation) normalized by configured capacity,
// yielding AVF-style vulnerability-vs-utilization curves per structure.
// A cache-hit point re-records only the (deterministic) golden run to
// recover occupancy, so rerun exports are byte-identical to live ones.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "inject/campaign.h"

namespace tfsim {

// One geometry in a sweep: the axis it varies, a stable label for reports
// ("rob=16"), and the full core shape (validated at expansion time).
struct GeometryPoint {
  std::string axis;
  std::string label;
  CoreConfig core;
};

// A named geometry sweep over one workload. `base` is perturbed one axis at
// a time; the baseline shape itself appears wherever an axis crosses it.
struct SweepSpec {
  std::string suite = "default";  // "default" (all axes) or "smoke" (3 pts)
  std::string workload = "gzip";
  bool include_ram = true;
  int trials = 200;
  int flips = 1;
  bool adjacent = false;
  GoldenSpec golden;
  std::uint64_t seed = 20040628;
  CoreConfig base;

  // The per-point CampaignSpec: identical to the sweep's parameters except
  // for the geometry under test (so per-point cache keys differ only by
  // shape — the collision this layer's cache-key fix removed).
  CampaignSpec PointSpec(const GeometryPoint& point) const;
};

// Axis names of the default suite, in expansion order.
const std::vector<std::string>& SweepAxisNames();

// Expands `spec` into its geometry points, optionally restricted to one
// axis (empty = all axes of the suite). Throws std::invalid_argument for an
// unknown suite or axis; every returned point passed CoreConfig::Validate().
std::vector<GeometryPoint> ExpandSweep(const SweepSpec& spec,
                                       const std::string& axis = "");

// One structure's cell at one geometry point.
struct StructureCell {
  std::string structure;     // registry field-name prefix ("rob", "lq", ...)
  std::uint64_t capacity = 0;   // configured entries (0 = not a sized queue)
  std::uint64_t trials = 0;     // trials whose injection landed here
  std::uint64_t failures = 0;   // SDC + Terminated among them
  double vulnerability = 0.0;   // failures / trials
  double utilization = -1.0;    // mean occupancy / capacity; -1 = unsampled
};

struct SweepPointResult {
  GeometryPoint point;
  std::array<std::uint64_t, kNumOutcomes> outcomes{};
  double failure_rate = 0.0;
  double golden_ipc = 0.0;
  bool from_cache = false;  // execution detail; excluded from the exports
  std::vector<StructureCell> structures;  // sorted by structure name
};

struct SweepResult {
  SweepSpec spec;
  std::string axis;  // filter the run used ("" = all)
  std::vector<SweepPointResult> points;
};

// Runs every point of the sweep through RunCampaign with `opt` as the base
// execution policy (observability sinks are managed per point; a caller-
// provided metrics registry is left untouched). Campaign results reuse the
// per-point cache; occupancy is recovered from a fresh golden recording for
// cached points, so the export is byte-identical between live and cached
// runs and at any jobs value.
SweepResult RunSweep(const SweepSpec& spec, const std::string& axis = "",
                     const CampaignOptions& opt = {});

// Deterministic exports (no timestamps, floats at max_digits10).
void WriteSweepJson(const SweepResult& result, std::ostream& os);
void WriteSweepCsv(const SweepResult& result, std::ostream& os);

}  // namespace tfsim
