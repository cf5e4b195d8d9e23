// CTest smoke for campaign telemetry, end to end: runs a campaign with the
// structured event journal feeding a JSONL file sink, validates every line
// of the journal file with the built-in JSON checker (no python), checks the
// file holds exactly the events the journal delivered, and cross-checks the
// heatmap's per-category failure-contribution ordering against the same
// ordering computed directly from the campaign result (the Figure 8
// computation).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "inject/campaign.h"
#include "inject/report.h"
#include "obs/events.h"
#include "obs/heatmap.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

using namespace tfsim;

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%-58s %s\n", what.c_str(), ok ? "ok" : "FAIL");
  if (!ok) ++g_failures;
}

bool LintBody(const std::string& body, const char* endpoint) {
  std::string err;
  const bool ok = obs::JsonLint(body, &err);
  if (!ok) std::fprintf(stderr, "%s: %s\n%s\n", endpoint, err.c_str(), body.c_str());
  return ok;
}

}  // namespace

int main() {
  const auto dir =
      std::filesystem::temp_directory_path() / "tfsim_telemetry_smoke";
  std::filesystem::create_directories(dir);
  setenv("TFI_CACHE_DIR", (dir / "cache").c_str(), 1);

  CampaignSpec spec;
  spec.workload = "gzip";
  spec.trials = 80;
  spec.golden.warmup = 12000;
  spec.golden.points = 3;
  spec.golden.spacing = 500;
  spec.golden.window = 4000;
  spec.golden.slack = 1000;

  obs::EventJournal journal;
  const auto events_path = dir / "events.jsonl";
  std::ofstream events_out(events_path);
  obs::JsonlEventSink events_sink(events_out);
  journal.AddSink(&events_sink);

  obs::MetricsRegistry metrics;
  CampaignOptions opt;
  opt.verbose = false;
  opt.use_cache = false;
  opt.jobs = 2;
  opt.obs.events = &journal;
  opt.obs.sinks.metrics = &metrics;
  const CampaignResult result = RunCampaign(spec, opt);
  Check(result.trials.size() == 80, "campaign ran all 80 trials");
  Check(metrics.GetCounter("campaign.trials").value() == 80,
        "metrics registry counted all 80 trials");

  // The heatmap's category ordering equals the Figure 8 ordering computed
  // from the campaign result itself (failures desc, name asc) — via the
  // same builder tfi --heatmap-json uses.
  {
    const obs::VulnerabilityHeatmap hm = BuildHeatmap(result);
    std::vector<std::pair<std::uint64_t, std::string>> expect;
    for (int c = 0; c < kNumStateCats; ++c) {
      const auto cat = static_cast<StateCat>(c);
      if (result.TrialsForCat(cat) == 0) continue;
      const auto by = result.ByOutcomeForCat(cat);
      expect.emplace_back(by[static_cast<int>(Outcome::kSdc)] +
                              by[static_cast<int>(Outcome::kTerminated)],
                          StateCatName(cat));
    }
    std::sort(expect.begin(), expect.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    const auto shares = hm.CategoryContributions();
    bool same = shares.size() == expect.size();
    for (std::size_t i = 0; same && i < shares.size(); ++i)
      same = expect[i].second == StateCatName(shares[i].cat) &&
             expect[i].first == shares[i].failures;
    Check(same, "heatmap category order matches Figure 8 computation");

    std::ostringstream json;
    hm.WriteJson(json, spec.workload);
    Check(LintBody(json.str(), "heatmap.json"), "heatmap JSON export parses");
  }

  journal.RemoveSink(&events_sink);
  events_out.close();
  // What `tfi campaign --events-jsonl` reports as written: events shed by
  // the queue never reach the file.
  const std::uint64_t written = journal.emitted() - journal.dropped();

  // The journal file: header first, every line valid JSON, one line per
  // delivered event, campaign bracketed, one trial_done per trial.
  {
    std::ifstream in(events_path);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    bool parses = !lines.empty();
    for (const std::string& l : lines) parses &= LintBody(l, "events.jsonl");
    Check(parses, "every events.jsonl line parses as JSON");
    Check(!lines.empty() &&
              lines.front().find("\"type\":\"header\"") != std::string::npos,
          "events.jsonl starts with the schema header");
    Check(!lines.empty() && lines.size() - 1 == written,
          "events.jsonl holds emitted - dropped events after the header");
    int trial_done = 0;
    for (const std::string& l : lines)
      if (l.find("\"ev\":\"trial_done\"") != std::string::npos) ++trial_done;
    Check(trial_done == 80, "events.jsonl has one trial_done per trial");
    Check(!lines.empty() && lines.back().find("\"ev\":\"campaign_finish\"") !=
                                std::string::npos,
          "events.jsonl ends with campaign_finish");
  }

  std::printf("telemetry_smoke: %s\n", g_failures ? "FAILED" : "PASSED");
  return g_failures ? 1 : 0;
}
