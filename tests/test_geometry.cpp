// Geometry matrix harness: one binary, any core shape.
//
// The pipeline historically assumed the paper's Alpha-21264-class geometry
// in pointer widths, wraparound masks and loop bounds; CoreConfig::Validate
// plus the derived-width refactor (IndexBits/CountBits) made the shape a
// real parameter. This suite pins that down four ways:
//   * Validate() rejects malformed shapes with structured, field-named
//     issues (and Core construction refuses them before any state exists);
//   * a matrix of non-default shapes runs every workload to completion in
//     lockstep with the functional simulator, invariant checker on, with
//     zero violations;
//   * campaign results at a non-default shape are deterministic across
//     worker counts, and the results cache keys on the geometry (two specs
//     differing only in rob_entries land distinct entries — the collision
//     the CacheKey salt bump fixed);
//   * a geometry sweep exports byte-identical JSON and CSV at any --jobs,
//     live or served from its per-point cache entries.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "campaign_fixture.h"
#include "check/lockstep.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "inject/sweep.h"
#include "uarch/core.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// CoreConfig::Validate

bool HasIssue(const std::vector<ConfigIssue>& issues,
              const std::string& field) {
  for (const ConfigIssue& i : issues)
    if (i.field == field) return true;
  return false;
}

TEST(GeometryValidate, DefaultShapeIsValid) {
  EXPECT_TRUE(CoreConfig{}.Validate().empty());
}

TEST(GeometryValidate, RejectsNonPow2Btb) {
  CoreConfig cfg;
  cfg.btb_sets = 100;
  EXPECT_TRUE(HasIssue(cfg.Validate(), "btb_sets"));
}

TEST(GeometryValidate, RejectsNonPow2CacheGeometry) {
  CoreConfig cfg;
  cfg.icache_bytes = 3000;
  cfg.dcache_banks = 3;
  const auto issues = cfg.Validate();
  EXPECT_TRUE(HasIssue(issues, "icache_bytes"));
  EXPECT_TRUE(HasIssue(issues, "dcache_banks"));
}

TEST(GeometryValidate, RejectsZeroWidth) {
  CoreConfig cfg;
  cfg.fetch_width = 0;
  EXPECT_TRUE(HasIssue(cfg.Validate(), "fetch_width"));
  cfg = CoreConfig{};
  cfg.retire_width = 0;
  EXPECT_TRUE(HasIssue(cfg.Validate(), "retire_width"));
}

TEST(GeometryValidate, RejectsWidthBeyondDepth) {
  CoreConfig cfg;
  cfg.rob_entries = 8;
  cfg.retire_width = 16;
  EXPECT_TRUE(HasIssue(cfg.Validate(), "retire_width"));
  cfg = CoreConfig{};
  cfg.fetch_queue = 2;
  cfg.fetch_width = 4;
  const auto issues = cfg.Validate();
  EXPECT_TRUE(HasIssue(issues, "fetch_queue") ||
              HasIssue(issues, "decode_width"));
}

TEST(GeometryValidate, RejectsPhysRegsOutsideEncodableRange) {
  CoreConfig cfg;
  cfg.phys_regs = 256;  // regptr fields are 7 bits (paper Table 1)
  EXPECT_TRUE(HasIssue(cfg.Validate(), "phys_regs"));
  cfg.phys_regs = 33;  // fewer than arch regs + 2 cannot rename
  EXPECT_TRUE(HasIssue(cfg.Validate(), "phys_regs"));
}

TEST(GeometryValidate, ValidateOrThrowCarriesAllIssues) {
  CoreConfig cfg;
  cfg.btb_sets = 7;
  cfg.phys_regs = 200;
  try {
    cfg.ValidateOrThrow();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_GE(e.issues.size(), 2u);
    EXPECT_NE(std::string(e.what()).find("btb_sets"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("phys_regs"), std::string::npos);
  }
}

TEST(GeometryValidate, CoreConstructionRefusesInvalidShapes) {
  const Program prog = BuildWorkload(WorkloadByName("gzip"), 1);
  CoreConfig cfg;
  cfg.ras_entries = 6;  // non-pow2: pointer wraparound masks would corrupt
  EXPECT_THROW(Core(cfg, prog), ConfigError);
}

// ---------------------------------------------------------------------------
// The shape matrix

struct Shape {
  const char* name;
  CoreConfig cfg;
};

CoreConfig MakeShape(int rob, int sched, int lq, int sq, int pregs,
                     int fetch_w, int retire_w) {
  CoreConfig cfg;
  cfg.rob_entries = rob;
  cfg.sched_entries = sched;
  cfg.lq_entries = lq;
  cfg.sq_entries = sq;
  cfg.phys_regs = pregs;
  cfg.fetch_width = fetch_w;
  cfg.retire_width = retire_w;
  return cfg;
}

const std::vector<Shape>& ShapeMatrix() {
  static const std::vector<Shape> shapes = {
      {"tiny_rob", MakeShape(16, 32, 16, 16, 80, 4, 4)},
      {"narrow_fetch", MakeShape(64, 32, 16, 16, 80, 1, 4)},
      {"deep_lsq", MakeShape(64, 32, 32, 32, 80, 4, 4)},
      {"minimal_pregs", MakeShape(64, 32, 16, 16, 34, 4, 4)},
      {"wide_retire", MakeShape(64, 32, 16, 16, 96, 8, 8)},
      {"max_all", MakeShape(128, 64, 32, 32, 128, 8, 8)},
  };
  return shapes;
}

TEST(GeometryMatrix, EveryShapeValidates) {
  for (const Shape& s : ShapeMatrix())
    EXPECT_TRUE(s.cfg.Validate().empty()) << s.name;
}

// Runs one workload to completion on one shape, in lockstep with the
// functional simulator and with the per-cycle invariant checker armed.
void RunToCompletion(const Shape& shape, const WorkloadInfo& workload) {
  // Small iteration count: the program reaches its exit syscall (the same
  // build the Section 5 software-level experiments use).
  const Program prog = BuildWorkload(workload, 2);
  CoreConfig cfg = shape.cfg;
  cfg.check_invariants = true;
  check::Lockstep ls(cfg, prog, check::kDeadlockCycles);
  // Generous: minimal_pregs/gzip legitimately needs ~550k cycles (two free
  // physical registers serialize nearly every rename).
  const std::uint64_t budget = 1500000;
  ASSERT_TRUE(ls.Run(budget))
      << shape.name << "/" << workload.name << ": " << ls.Failure();
  EXPECT_TRUE(ls.exited())
      << shape.name << "/" << workload.name
      << " did not run to completion in " << budget << " cycles (retired "
      << ls.retired() << ")";
  EXPECT_GT(ls.retired(), 100u) << shape.name << "/" << workload.name;
}

class GeometryMatrix : public ::testing::TestWithParam<int> {};

TEST_P(GeometryMatrix, AllWorkloadsCompleteWithInvariantsClean) {
  const Shape& shape = ShapeMatrix()[static_cast<std::size_t>(GetParam())];
  for (const WorkloadInfo& w : AllWorkloads()) {
    RunToCompletion(shape, w);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometryMatrix,
    ::testing::Range(0, static_cast<int>(ShapeMatrix().size())),
    [](const ::testing::TestParamInfo<int>& p) {
      return ShapeMatrix()[static_cast<std::size_t>(p.param)].name;
    });

// ---------------------------------------------------------------------------
// Campaign determinism and cache keying at non-default shapes

CampaignSpec SmallShapedCampaign(int rob_entries) {
  CampaignSpec spec = SmallCampaign(16);
  spec.core.rob_entries = rob_entries;
  return spec;
}

TEST(GeometryCampaign, CacheKeyDistinguishesGeometry) {
  const CampaignSpec a = SmallShapedCampaign(16);
  const CampaignSpec b = SmallShapedCampaign(64);
  EXPECT_NE(a.CacheKey(), b.CacheKey())
      << "specs differing only in rob_entries must not share a cache key";
}

TEST(GeometryCampaign, DistinctGeometriesCacheDistinctResults) {
  ScopedCacheDir cache("tfi_test_geometry_cache");
  const CampaignSpec small = SmallShapedCampaign(16);
  const CampaignSpec big = SmallShapedCampaign(64);

  CampaignOptions opt;
  opt.verbose = false;
  const CampaignResult r_small = RunCampaign(small, opt);

  // Only the shape that ran is cached; the other geometry misses.
  EXPECT_TRUE(LoadCachedCampaign(small).has_value());
  EXPECT_FALSE(LoadCachedCampaign(big).has_value())
      << "rob=64 was served rob=16's results";

  const CampaignResult r_big = RunCampaign(big, opt);
  const auto c_small = LoadCachedCampaign(small);
  const auto c_big = LoadCachedCampaign(big);
  ASSERT_TRUE(c_small.has_value());
  ASSERT_TRUE(c_big.has_value());
  EXPECT_EQ(c_small->trials, r_small.trials);
  EXPECT_EQ(c_big->trials, r_big.trials);
  EXPECT_NE(c_small->trials, c_big->trials)
      << "a 16-entry and a 64-entry ROB produced identical trial streams — "
         "the cache is almost certainly aliasing";
}

TEST(GeometryCampaign, NonDefaultShapeDeterministicAcrossJobs) {
  CampaignSpec spec = SmallShapedCampaign(16);
  spec.core.lq_entries = 8;
  spec.core.sq_entries = 8;
  CampaignOptions opt;
  opt.verbose = false;
  opt.use_cache = false;
  const CampaignResult serial = RunCampaign(spec, opt);
  opt.jobs = 3;
  const CampaignResult threaded = RunCampaign(spec, opt);
  EXPECT_EQ(serial.trials, threaded.trials)
      << "trial records at a non-default geometry differ across --jobs";
}

// ---------------------------------------------------------------------------
// Geometry sweeps

std::string SweepJson(const SweepResult& r) {
  std::ostringstream os;
  WriteSweepJson(r, os);
  return os.str();
}

std::string SweepCsv(const SweepResult& r) {
  std::ostringstream os;
  WriteSweepCsv(r, os);
  return os.str();
}

std::size_t CacheEntries(const std::string& dir) {
  std::size_t n = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".txt") ++n;
  return n;
}

// The 3-point smoke suite: a cold sweep runs every point live into its own
// cache entry, jobs 1 and 4 export byte-identical JSON and CSV, and a rerun
// is served entirely from the cache with byte-identical JSON (occupancy is
// re-recorded from the deterministic golden run).
TEST(GeometrySweep, LiveJobsAndCachedExportsByteIdentical) {
  SweepSpec spec;
  spec.suite = "smoke";
  spec.trials = 24;
  spec.golden = SmallCampaign(0).golden;
  ASSERT_EQ(ExpandSweep(spec).size(), 3u);
  CampaignOptions opt;
  opt.verbose = false;

  ScopedCacheDir cold("tfi_test_sweep_jobs1");
  const SweepResult r1 = RunSweep(spec, "", opt);
  ASSERT_EQ(r1.points.size(), 3u);
  for (const SweepPointResult& p : r1.points) EXPECT_FALSE(p.from_cache);
  EXPECT_EQ(CacheEntries(cold.dir()), 3u)
      << "CacheKey must hash the core geometry";

  {
    ScopedCacheDir other("tfi_test_sweep_jobs4");
    CampaignOptions opt4 = opt;
    opt4.jobs = 4;
    const SweepResult r4 = RunSweep(spec, "", opt4);
    EXPECT_EQ(SweepJson(r4), SweepJson(r1));
    EXPECT_EQ(SweepCsv(r4), SweepCsv(r1));
  }

  const SweepResult r2 = RunSweep(spec, "", opt);
  for (const SweepPointResult& p : r2.points) EXPECT_TRUE(p.from_cache);
  EXPECT_EQ(SweepJson(r2), SweepJson(r1));
}

}  // namespace
}  // namespace tfsim
