#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.h"
#include "util/argparse.h"
#include "workloads/workloads.h"

namespace tfsim::bench {
namespace {

// One registry shared by every suite a bench binary runs, so the exported
// snapshot accumulates across specs (base + protected, l and l+r...).
obs::MetricsRegistry& GlobalMetrics() {
  static obs::MetricsRegistry m;
  return m;
}

BenchOptions& MutableOptions() {
  static BenchOptions opts = [] {
    BenchOptions o;
    o.trials = EnvInt("TFI_TRIALS", 500);
    o.points = EnvInt("TFI_POINTS", 12);
    o.jobs = EnvInt("TFI_JOBS", 1);
    o.progress = EnvInt("TFI_PROGRESS", 0) != 0;
    o.metrics_json = EnvStr("TFI_METRICS_JSON", "");
    return o;
  }();
  return opts;
}

}  // namespace

void Init(int argc, char** argv) {
  BenchOptions& o = MutableOptions();
  ArgParser p;
  p.AddInt("trials", &o.trials, "trials per benchmark per campaign");
  p.AddInt("points", &o.points, "checkpoints (start points) per golden run");
  p.AddInt("jobs", &o.jobs,
           "trial-loop worker threads; 0 = all hardware threads");
  p.AddFlag("progress", &o.progress, "per-campaign progress lines");
  p.AddStr("metrics-json", &o.metrics_json,
           "cumulative metrics-registry JSON snapshot path");
  if (!p.Parse(argc, argv) || !p.positional().empty()) {
    const std::string err = !p.error().empty()
                                ? p.error()
                                : "unexpected argument " + p.positional()[0];
    std::fprintf(stderr, "%s: %s\noptions:\n%s", argv[0], err.c_str(),
                 p.Help().c_str());
    std::exit(2);
  }
}

const BenchOptions& Options() { return MutableOptions(); }

CampaignOptions RunOpts() {
  CampaignOptions opt;
  opt.jobs = static_cast<int>(Options().jobs);
  opt.obs.progress = Options().progress;
  return opt;
}

CampaignSpec BaseSpec(bool include_ram, const ProtectionConfig& protect) {
  CampaignSpec spec;
  spec.include_ram = include_ram;
  spec.core.protect = protect;
  spec.trials = static_cast<int>(Options().trials);
  spec.golden.points = static_cast<int>(Options().points);
  return spec;
}

std::vector<CampaignResult> Suite(const CampaignSpec& spec) {
  CampaignOptions opt = RunOpts();
  const std::string& metrics_path = Options().metrics_json;
  if (!metrics_path.empty()) opt.obs.sinks.metrics = &GlobalMetrics();

  const std::vector<CampaignResult> out = RunSuite(spec, opt);
  for (const auto& r : out)
    if (!r.quarantined.empty())
      std::fprintf(stderr,
                   "[bench] warning: %zu quarantined trial(s) in %s — "
                   "excluded from outcome percentages\n",
                   r.quarantined.size(), r.spec.workload.c_str());
  if (!metrics_path.empty()) {
    std::ofstream f(metrics_path);
    if (f) GlobalMetrics().WriteJson(f);
  }
  return out;
}

std::vector<std::string> OutcomeCells(
    const std::array<std::uint64_t, kNumOutcomes>& counts) {
  // Percentages are over the paper's four outcomes: quarantined trials
  // (Outcome::kTrialError) are sample holes, not machine behaviour, and
  // Suite() reports them separately.
  std::uint64_t total = 0;
  for (int i = 0; i < kNumPaperOutcomes; ++i) total += counts[i];
  std::vector<std::string> cells;
  std::vector<double> fractions;
  // Paper bar order: uArch Match, Terminated, SDC, Gray Area.
  for (int i = 0; i < kNumPaperOutcomes; ++i) {
    const double f =
        total ? static_cast<double>(counts[i]) / static_cast<double>(total)
              : 0.0;
    fractions.push_back(f);
    cells.push_back(Fmt(100.0 * f, 1));
  }
  cells.push_back(StackedBar(fractions, "MTS.", 40));
  return cells;
}

void PrintHeader(const std::string& figure, const std::string& description) {
  std::printf("=============================================================\n");
  std::printf("%s\n%s\n", figure.c_str(), description.c_str());
  std::printf("=============================================================\n");
}

const std::vector<StateCat>& Table1Cats() {
  static const std::vector<StateCat> kCats = {
      StateCat::kAddr,        StateCat::kArchFreelist, StateCat::kArchRat,
      StateCat::kCtrl,        StateCat::kData,         StateCat::kInsn,
      StateCat::kPc,          StateCat::kQctrl,        StateCat::kRegfile,
      StateCat::kRegptr,      StateCat::kRobptr,       StateCat::kSpecFreelist,
      StateCat::kSpecRat,     StateCat::kValid,
  };
  return kCats;
}

}  // namespace tfsim::bench
