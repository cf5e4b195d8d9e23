#include "inject/sweep.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "inject/golden.h"
#include "inject/report.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "soft/harden.h"

namespace tfsim {
namespace {

struct Axis {
  const char* name;
  std::vector<int> values;
};

// The default suite's axes (tentpole ranges: ROB 16-128, scheduler 8-64,
// LQ/SQ 4-32, phys-regs 48-128, fetch/retire width 2-8). Each axis includes
// the baseline value so every curve crosses the paper's shape.
const std::vector<Axis>& DefaultAxes() {
  static const std::vector<Axis> axes = {
      {"rob", {16, 32, 64, 128}},
      {"sched", {8, 16, 32, 64}},
      {"lsq", {4, 8, 16, 32}},
      {"pregs", {48, 64, 80, 96, 128}},
      {"width", {2, 4, 8}},
  };
  return axes;
}

// The 3-point smoke suite for CI: two ROB depths plus a small scheduler.
const std::vector<Axis>& SmokeAxes() {
  static const std::vector<Axis> axes = {
      {"rob", {16, 64}},
      {"sched", {8}},
  };
  return axes;
}

GeometryPoint MakePoint(const CoreConfig& base, const std::string& axis,
                        int value) {
  GeometryPoint p;
  p.axis = axis;
  p.label = axis + "=" + std::to_string(value);
  p.core = base;
  if (axis == "rob") {
    p.core.rob_entries = value;
    p.core.retire_width = std::min(base.retire_width, value);
  } else if (axis == "sched") {
    p.core.sched_entries = value;
  } else if (axis == "lsq") {
    p.core.lq_entries = value;
    p.core.sq_entries = value;
  } else if (axis == "pregs") {
    p.core.phys_regs = value;
  } else if (axis == "width") {
    p.core.fetch_width = value;
    p.core.retire_width = value;
  } else {
    throw std::invalid_argument("unknown sweep axis: " + axis);
  }
  return p;
}

// Structures with a configured capacity and a golden-run occupancy
// histogram (the PR 1/PR 6 pipe.* instrumentation).
struct OccupancySource {
  const char* structure;
  const char* histogram;
  int CoreConfig::* capacity;
};
constexpr OccupancySource kOccupancy[] = {
    {"rob", "pipe.rob.occupancy", &CoreConfig::rob_entries},
    {"sched", "pipe.scheduler.occupancy", &CoreConfig::sched_entries},
    {"lq", "pipe.lq.occupancy", &CoreConfig::lq_entries},
    {"sq", "pipe.sq.occupancy", &CoreConfig::sq_entries},
    {"fq", "pipe.fetchq.occupancy", &CoreConfig::fetch_queue},
    {"mshr", "pipe.dcache.mshrs_in_use", &CoreConfig::mshrs},
};

std::string StructureOf(const std::string& field_name) {
  const std::size_t dot = field_name.find('.');
  return dot == std::string::npos ? field_name : field_name.substr(0, dot);
}

}  // namespace

CampaignSpec SweepSpec::PointSpec(const GeometryPoint& point) const {
  CampaignSpec cs;
  cs.workload = workload;
  cs.core = point.core;
  cs.include_ram = include_ram;
  cs.trials = trials;
  cs.flips = flips;
  cs.adjacent = adjacent;
  cs.golden = golden;
  cs.seed = seed;
  return cs;
}

const std::vector<std::string>& SweepAxisNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Axis& a : DefaultAxes()) out.push_back(a.name);
    return out;
  }();
  return names;
}

std::vector<GeometryPoint> ExpandSweep(const SweepSpec& spec,
                                       const std::string& axis) {
  const std::vector<Axis>* axes = nullptr;
  if (spec.suite == "default") {
    axes = &DefaultAxes();
  } else if (spec.suite == "smoke") {
    axes = &SmokeAxes();
  } else {
    throw std::invalid_argument("unknown sweep suite: " + spec.suite);
  }
  std::vector<GeometryPoint> points;
  bool axis_seen = axis.empty();
  for (const Axis& a : *axes) {
    if (!axis.empty() && axis != a.name) continue;
    axis_seen = true;
    for (int v : a.values) points.push_back(MakePoint(spec.base, a.name, v));
  }
  if (!axis_seen)
    throw std::invalid_argument("unknown sweep axis: " + axis +
                                " (suite " + spec.suite + ")");
  for (const GeometryPoint& p : points) p.core.ValidateOrThrow();
  return points;
}

SweepResult RunSweep(const SweepSpec& spec, const std::string& axis,
                     const CampaignOptions& opt) {
  SweepResult out;
  out.spec = spec;
  out.axis = axis;
  const std::vector<GeometryPoint> points = ExpandSweep(spec, axis);

  const Program program = ResolveCampaignProgram(spec.workload);

  for (const GeometryPoint& point : points) {
    const CampaignSpec cspec = spec.PointSpec(point);

    // Private metrics per point: live campaigns sample golden occupancy
    // into it; the caller's own sinks (if any) are not disturbed.
    obs::MetricsRegistry metrics;
    CampaignOptions popt = opt;
    popt.obs.sinks.metrics = &metrics;
    popt.obs.sinks.chrome = nullptr;
    const CampaignResult cres = RunCampaign(cspec, popt);

    SweepPointResult pr;
    pr.point = point;
    pr.outcomes = cres.ByOutcome();
    pr.failure_rate = cres.FailureRate().value;
    pr.golden_ipc = cres.golden_ipc;

    // A cache hit skips the golden run, leaving the occupancy histograms
    // empty. Occupancy is a pure function of (core, program, golden spec),
    // so re-recording just the golden run recovers byte-identical values —
    // cached reruns export exactly what the live run did.
    obs::MetricsRegistry replay;
    obs::MetricsRegistry* occ = &metrics;
    if (metrics.GetHistogram("pipe.rob.occupancy").stat().Count() == 0) {
      pr.from_cache = true;
      obs::ObsSinks sinks;
      sinks.metrics = &replay;
      (void)RecordGolden(cspec.core, program, cspec.golden, &sinks);
      occ = &replay;
    }

    // Per-structure outcome distributions: the heatmap's per-field cells
    // summed by structure (works for cached results).
    const obs::VulnerabilityHeatmap hm = BuildHeatmap(cres);
    std::map<std::string, StructureCell> cells;
    for (const auto& [field, hc] : hm.cells()) {
      StructureCell& c = cells[StructureOf(field)];
      c.trials += hc.trials;
      c.failures += hc.Failures();
    }
    for (auto& [name, cell] : cells) {
      cell.structure = name;
      cell.vulnerability =
          cell.trials ? static_cast<double>(cell.failures) /
                            static_cast<double>(cell.trials)
                      : 0.0;
      for (const OccupancySource& src : kOccupancy) {
        if (name != src.structure) continue;
        cell.capacity = static_cast<std::uint64_t>(cspec.core.*src.capacity);
        const obs::Histogram& h = occ->GetHistogram(src.histogram);
        if (h.stat().Count() > 0 && cell.capacity > 0)
          cell.utilization =
              h.stat().Mean() / static_cast<double>(cell.capacity);
      }
      pr.structures.push_back(cell);
    }
    out.points.push_back(std::move(pr));
  }
  return out;
}

void WriteSweepJson(const SweepResult& result, std::ostream& os) {
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Field("schema_version", 1);
  w.Field("suite", result.spec.suite);
  if (!result.axis.empty()) w.Field("axis", result.axis);
  w.Field("workload", result.spec.workload);
  w.Field("include_ram", result.spec.include_ram);
  w.Field("trials_per_point", result.spec.trials);
  w.Field("seed", result.spec.seed);
  w.BeginArray("points");
  for (const SweepPointResult& p : result.points) {
    w.BeginObject();
    w.Field("axis", p.point.axis);
    w.Field("label", p.point.label);
    w.BeginObject("geometry");
    const CoreConfig& c = p.point.core;
    w.Field("rob_entries", c.rob_entries);
    w.Field("sched_entries", c.sched_entries);
    w.Field("lq_entries", c.lq_entries);
    w.Field("sq_entries", c.sq_entries);
    w.Field("phys_regs", c.phys_regs);
    w.Field("fetch_width", c.fetch_width);
    w.Field("retire_width", c.retire_width);
    w.Field("fetch_queue", c.fetch_queue);
    w.End();
    w.Field("golden_ipc", p.golden_ipc);
    w.Field("failure_rate", p.failure_rate);
    w.BeginObject("outcomes");
    for (int o = 0; o < kNumOutcomes; ++o)
      w.Field(OutcomeName(static_cast<Outcome>(o)), p.outcomes[static_cast<std::size_t>(o)]);
    w.End();
    w.BeginArray("structures");
    for (const StructureCell& cell : p.structures) {
      w.BeginObject();
      w.Field("structure", cell.structure);
      if (cell.capacity > 0) w.Field("capacity", cell.capacity);
      w.Field("trials", cell.trials);
      w.Field("failures", cell.failures);
      w.Field("vulnerability", cell.vulnerability);
      if (cell.utilization >= 0.0)
        w.Field("utilization", cell.utilization);
      w.End();
    }
    w.End();
    w.End();
  }
  w.End();
  // The figure: per-structure vulnerability-vs-utilization curves — every
  // (geometry point, structure) cell that has both coordinates, grouped by
  // structure and ordered by utilization.
  w.BeginObject("curves");
  std::map<std::string, std::vector<std::pair<const SweepPointResult*,
                                              const StructureCell*>>> curves;
  for (const SweepPointResult& p : result.points)
    for (const StructureCell& cell : p.structures)
      if (cell.utilization >= 0.0 && cell.trials > 0)
        curves[cell.structure].push_back({&p, &cell});
  for (auto& [structure, pts] : curves) {
    std::stable_sort(pts.begin(), pts.end(), [](const auto& a, const auto& b) {
      return a.second->utilization < b.second->utilization;
    });
    w.BeginArray(structure);
    for (const auto& [p, cell] : pts) {
      w.BeginObject();
      w.Field("label", p->point.label);
      w.Field("utilization", cell->utilization);
      w.Field("vulnerability", cell->vulnerability);
      w.Field("trials", cell->trials);
      w.End();
    }
    w.End();
  }
  w.End();
  w.End();
  os << '\n';
}

void WriteSweepCsv(const SweepResult& result, std::ostream& os) {
  os << "suite,workload,axis,label,structure,capacity,trials,failures,"
        "vulnerability,utilization,golden_ipc\n";
  for (const SweepPointResult& p : result.points) {
    for (const StructureCell& cell : p.structures) {
      os << result.spec.suite << ',' << result.spec.workload << ','
         << p.point.axis << ',' << p.point.label << ',' << cell.structure
         << ',' << cell.capacity << ',' << cell.trials << ','
         << cell.failures << ',';
      obs::JsonWriter wv(os);
      wv.Value(cell.vulnerability);
      os << ',';
      if (cell.utilization >= 0.0) {
        obs::JsonWriter wu(os);
        wu.Value(cell.utilization);
      }
      os << ',';
      obs::JsonWriter wi(os);
      wi.Value(p.golden_ipc);
      os << '\n';
    }
  }
}

}  // namespace tfsim
