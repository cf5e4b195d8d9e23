// Per-field vulnerability heatmap: aggregation counts, the Figure 8
// category rollup ordering, deterministic exports, and the post-hoc
// BuildHeatmap join against a real campaign result.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_fixture.h"
#include "inject/campaign.h"
#include "inject/report.h"
#include "obs/heatmap.h"
#include "obs/json_writer.h"

namespace tfsim {
namespace {

using obs::VulnerabilityHeatmap;

VulnerabilityHeatmap::Sample MakeSample(const std::string& field, StateCat cat,
                                        Outcome outcome) {
  VulnerabilityHeatmap::Sample s;
  s.field = field;
  s.cat = cat;
  s.storage = Storage::kLatch;
  s.field_bits = 64;
  s.outcome = outcome;
  s.mode = outcome == Outcome::kSdc ? FailureMode::kMem
                                    : FailureMode::kNoFailure;
  s.cycles = 100;
  return s;
}

TEST(Heatmap, AggregatesPerFieldCounts) {
  VulnerabilityHeatmap hm;
  hm.Add(MakeSample("rob.valid", StateCat::kRobptr, Outcome::kSdc));
  hm.Add(MakeSample("rob.valid", StateCat::kRobptr, Outcome::kMicroArchMatch));
  hm.Add(MakeSample("rob.valid", StateCat::kRobptr, Outcome::kMicroArchMatch));
  hm.Add(MakeSample("iq.src1", StateCat::kQctrl, Outcome::kTerminated));

  EXPECT_EQ(hm.trials(), 4u);
  EXPECT_EQ(hm.failures(), 2u);  // one SDC + one Terminated
  ASSERT_EQ(hm.cells().size(), 2u);
  const auto& rob = hm.cells().at("rob.valid");
  EXPECT_EQ(rob.trials, 3u);
  EXPECT_EQ(rob.cat, StateCat::kRobptr);
  EXPECT_EQ(rob.bits, 64u);
  EXPECT_EQ(rob.outcomes[static_cast<int>(Outcome::kSdc)], 1u);
  EXPECT_EQ(rob.outcomes[static_cast<int>(Outcome::kMicroArchMatch)], 2u);
  EXPECT_EQ(rob.Failures(), 1u);
  EXPECT_EQ(rob.modes[static_cast<int>(FailureMode::kMem)], 1u);
}

TEST(Heatmap, LatencyHistogramJoinsTracedTrials) {
  VulnerabilityHeatmap hm;
  auto s = MakeSample("lsq.addr", StateCat::kAddr, Outcome::kSdc);
  s.arch_divergence_cycle = 70;  // bucket 1 at width 64
  s.first_spread_cycle = -1;     // traced, stayed local
  hm.Add(s);
  auto untraced = MakeSample("lsq.addr", StateCat::kAddr, Outcome::kSdc);
  hm.Add(untraced);  // kNotTraced sentinels: counted in neither n nor silent

  const auto& cell = hm.cells().at("lsq.addr");
  EXPECT_EQ(cell.arch_divergence.n, 1u);
  EXPECT_EQ(cell.arch_divergence.silent, 0u);
  EXPECT_EQ(cell.arch_divergence.sum, 70u);
  EXPECT_EQ(cell.arch_divergence.min, 70u);
  EXPECT_EQ(cell.arch_divergence.max, 70u);
  EXPECT_EQ(cell.arch_divergence.buckets[1], 1u);
  EXPECT_DOUBLE_EQ(cell.arch_divergence.Mean(), 70.0);
  EXPECT_EQ(cell.first_spread.n, 0u);
  EXPECT_EQ(cell.first_spread.silent, 1u);
}

TEST(Heatmap, CategoryContributionsOrderByFailuresThenName) {
  VulnerabilityHeatmap hm;
  // kRob: 2 failures; kLsq: 2 failures; kCtrl: 1 failure; kRegfile: 0.
  hm.Add(MakeSample("rob.a", StateCat::kRobptr, Outcome::kSdc));
  hm.Add(MakeSample("rob.b", StateCat::kRobptr, Outcome::kTerminated));
  hm.Add(MakeSample("lsq.a", StateCat::kAddr, Outcome::kSdc));
  hm.Add(MakeSample("lsq.b", StateCat::kAddr, Outcome::kSdc));
  hm.Add(MakeSample("ctrl.a", StateCat::kCtrl, Outcome::kTerminated));
  hm.Add(MakeSample("rf.a", StateCat::kRegfile, Outcome::kMicroArchMatch));

  const auto shares = hm.CategoryContributions();
  ASSERT_EQ(shares.size(), 4u);
  // Two failures each: tie broken by category name ascending.
  const std::string first = StateCatName(shares[0].cat);
  const std::string second = StateCatName(shares[1].cat);
  EXPECT_EQ(shares[0].failures, 2u);
  EXPECT_EQ(shares[1].failures, 2u);
  EXPECT_LT(first, second);
  EXPECT_EQ(shares[2].cat, StateCat::kCtrl);
  EXPECT_EQ(shares[2].failures, 1u);
  EXPECT_EQ(shares[3].cat, StateCat::kRegfile);
  EXPECT_EQ(shares[3].failures, 0u);
}

TEST(Heatmap, JsonExportIsValidAndDeterministic) {
  VulnerabilityHeatmap hm;
  hm.Add(MakeSample("rob.valid", StateCat::kRobptr, Outcome::kSdc));
  hm.Add(MakeSample("iq.src1", StateCat::kQctrl, Outcome::kGrayArea));

  std::ostringstream a, b;
  hm.WriteJson(a, "gzip", "2026-01-01T00:00:00Z");
  hm.WriteJson(b, "gzip", "2026-01-01T00:00:00Z");
  EXPECT_EQ(a.str(), b.str());
  std::string err;
  EXPECT_TRUE(obs::JsonLint(a.str(), &err)) << err;
  EXPECT_NE(a.str().find("\"schema_version\""), std::string::npos);
  EXPECT_NE(a.str().find("\"generated_at\":\"2026-01-01T00:00:00Z\""),
            std::string::npos);
  EXPECT_NE(a.str().find("\"workload\":\"gzip\""), std::string::npos);
  EXPECT_NE(a.str().find("\"fields\""), std::string::npos);
  EXPECT_NE(a.str().find("\"categories\""), std::string::npos);
  // Sorted cells: iq.src1 renders before rob.valid.
  EXPECT_LT(a.str().find("iq.src1"), a.str().find("rob.valid"));
}

TEST(Heatmap, CsvExportOneRowPerField) {
  VulnerabilityHeatmap hm;
  hm.Add(MakeSample("rob.valid", StateCat::kRobptr, Outcome::kSdc));
  hm.Add(MakeSample("iq.src1", StateCat::kQctrl, Outcome::kGrayArea));
  std::ostringstream os;
  hm.WriteCsv(os);
  std::istringstream lines(os.str());
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  ASSERT_EQ(rows.size(), 3u);  // header + 2 fields
  EXPECT_EQ(rows[0].substr(0, 6), "field,");
  EXPECT_EQ(rows[1].substr(0, 8), "iq.src1,");
  EXPECT_EQ(rows[2].substr(0, 10), "rob.valid,");
}

TEST(Heatmap, BuildHeatmapMatchesCampaignAggregates) {
  CampaignOptions opt = QuietLive();
  opt.obs.collect_prop_traces = true;
  const CampaignResult r = RunCampaign(SmallCampaign(40), opt);
  ASSERT_EQ(r.trials.size(), 40u);

  const VulnerabilityHeatmap hm = BuildHeatmap(r);
  EXPECT_EQ(hm.trials(), 40u);
  const auto o = r.ByOutcome();
  EXPECT_EQ(hm.failures(), o[static_cast<int>(Outcome::kSdc)] +
                               o[static_cast<int>(Outcome::kTerminated)]);

  // The category rollup agrees with the result's own per-category counts
  // (the Figure 8 data), category by category.
  for (const auto& share : hm.CategoryContributions()) {
    EXPECT_EQ(share.trials, r.TrialsForCat(share.cat))
        << StateCatName(share.cat);
    const auto by = r.ByOutcomeForCat(share.cat);
    EXPECT_EQ(share.failures, by[static_cast<int>(Outcome::kSdc)] +
                                  by[static_cast<int>(Outcome::kTerminated)])
        << StateCatName(share.cat);
  }

  // The rollup ordering is the canonical failures-desc, name-asc order.
  const auto shares = hm.CategoryContributions();
  const bool ordered = std::is_sorted(
      shares.begin(), shares.end(), [](const auto& a, const auto& b) {
        if (a.failures != b.failures) return a.failures > b.failures;
        return std::string(StateCatName(a.cat)) <
               std::string(StateCatName(b.cat));
      });
  EXPECT_TRUE(ordered);

  // Field cells agree with the trace-recorded injection sites trial by
  // trial (the traces carry the authoritative field names).
  ASSERT_EQ(r.prop_traces.size(), 40u);
  std::uint64_t traced_with_latency = 0;
  for (const auto& t : r.prop_traces) {
    ASSERT_TRUE(hm.cells().count(t.field)) << t.field;
    if (t.arch_divergence_cycle >= 0) ++traced_with_latency;
  }
  std::uint64_t heatmap_latency_n = 0;
  for (const auto& [name, cell] : hm.cells())
    heatmap_latency_n += cell.arch_divergence.n;
  EXPECT_EQ(heatmap_latency_n, traced_with_latency);

  // An aggregate (synthetic workload name) has no trial→spec mapping.
  EXPECT_THROW(BuildHeatmap(MergeResults({r, r})), std::out_of_range);
}

}  // namespace
}  // namespace tfsim
