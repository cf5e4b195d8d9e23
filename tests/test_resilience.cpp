// The resilient execution layer: CRC32 + atomic file primitives, the v2
// checksummed results cache (with v1 back-compat and bit-exact doubles),
// torn writes, and trial quarantine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign_fixture.h"
#include "inject/cache.h"
#include "inject/campaign.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/fs.h"

namespace tfsim {
namespace {

namespace fs = std::filesystem;

// A synthetic result exercising every serialized field, including doubles
// that do not round-trip at default stream precision.
CampaignResult AwkwardResult(const CampaignSpec& spec) {
  CampaignResult r;
  r.spec = spec;
  r.golden_ipc = 1.0 / 3.0;
  r.golden_bp_accuracy = 0.9428090415820634;  // irrational-ish, 17 digits
  r.golden_dcache_misses = 123456789;
  for (int c = 0; c < kNumStateCats; ++c) {
    r.inventory[c].latch_bits = 1000 + c;
    r.inventory[c].ram_bits = 7 * c;
  }
  r.trials.resize(static_cast<std::size_t>(spec.trials));
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    TrialRecord& t = r.trials[i];
    t.outcome = static_cast<Outcome>(i % kNumOutcomes);
    t.mode = static_cast<FailureMode>(i % kNumFailureModes);
    t.cat = static_cast<StateCat>(i % kNumStateCats);
    t.storage = static_cast<Storage>(i % 2);
    t.cycles = static_cast<std::uint32_t>(17 * i + 3);
    t.valid_instrs = static_cast<std::uint32_t>(5 * i);
    t.inflight = static_cast<std::uint32_t>(i);
  }
  return r;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(Checksum, Crc32KnownVectorAndIncremental) {
  // The canonical CRC-32 check value (zlib, PNG, IEEE 802.3).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Incremental application over a split equals one pass over the whole.
  const std::uint32_t part = Crc32("12345");
  EXPECT_EQ(Crc32("6789", part), Crc32("123456789"));
  // Sensitivity: one flipped bit changes the CRC.
  EXPECT_NE(Crc32("123456788"), Crc32("123456789"));
}

TEST(AtomicWrite, WritesAndReplaces) {
  const fs::path path = fs::temp_directory_path() / "tfi_atomic_write.txt";
  fs::remove(path);
  std::string error;
  ASSERT_TRUE(AtomicWriteFile(path, "first", &error)) << error;
  EXPECT_EQ(SlurpFile(path.string()), "first");
  ASSERT_TRUE(AtomicWriteFile(path, "second longer contents", &error));
  EXPECT_EQ(SlurpFile(path.string()), "second longer contents");
  // No temporaries left behind.
  int siblings = 0;
  for (const auto& e : fs::directory_iterator(path.parent_path()))
    if (e.path().filename().string().rfind("tfi_atomic_write.txt", 0) == 0)
      ++siblings;
  EXPECT_EQ(siblings, 1);
  fs::remove(path);
  // A missing parent directory fails cleanly instead of crashing.
  EXPECT_FALSE(AtomicWriteFile(
      fs::temp_directory_path() / "tfi_no_such_dir" / "x.txt", "y", &error));
  EXPECT_FALSE(error.empty());
}

TEST(CacheV2, RoundTripsEveryFieldBitExactly) {
  ScopedCacheDir cache("tfi_test_cache_v2");
  const CampaignSpec spec = SmallCampaign(11);
  const CampaignResult stored = AwkwardResult(spec);
  ASSERT_TRUE(StoreCachedCampaign(stored));

  const auto loaded = LoadCachedCampaign(spec);
  ASSERT_TRUE(loaded.has_value());
  // Doubles survive bit-exactly (max_digits10 serialization).
  EXPECT_EQ(loaded->golden_ipc, stored.golden_ipc);
  EXPECT_EQ(loaded->golden_bp_accuracy, stored.golden_bp_accuracy);
  EXPECT_EQ(loaded->golden_dcache_misses, stored.golden_dcache_misses);
  for (int c = 0; c < kNumStateCats; ++c) {
    EXPECT_EQ(loaded->inventory[c].latch_bits, stored.inventory[c].latch_bits);
    EXPECT_EQ(loaded->inventory[c].ram_bits, stored.inventory[c].ram_bits);
  }
  EXPECT_EQ(loaded->trials, stored.trials);
  // The quarantine index is rebuilt from the kTrialError records.
  std::size_t errors = 0;
  for (const auto& t : stored.trials)
    if (t.outcome == Outcome::kTrialError) ++errors;
  EXPECT_EQ(loaded->quarantined.size(), errors);
}

TEST(CacheV2, RejectsTamperedTruncatedAndPaddedFiles) {
  ScopedCacheDir cache("tfi_test_cache_tamper");
  const CampaignSpec spec = SmallCampaign(9);
  ASSERT_TRUE(StoreCachedCampaign(AwkwardResult(spec)));
  const std::string path = CachePath(spec);
  const std::string good = SlurpFile(path);
  ASSERT_TRUE(LoadCachedCampaign(spec).has_value());

  // Flip one payload byte: CRC mismatch.
  std::string tampered = good;
  tampered[good.size() - 2] ^= 0x01;
  WriteRaw(path, tampered);
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());

  // Truncate: declared length can't be read.
  WriteRaw(path, good.substr(0, good.size() / 2));
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());

  // Trailing garbage: file longer than the declared payload.
  WriteRaw(path, good + "extra");
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());

  // Unknown magic.
  WriteRaw(path, "tfi-cache v9\n" + good);
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());

  // Empty file.
  WriteRaw(path, "");
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());

  // Restoring the original bytes restores the hit.
  WriteRaw(path, good);
  EXPECT_TRUE(LoadCachedCampaign(spec).has_value());
}

TEST(CacheV2, StoreFailureIsCountedNotSilent) {
  // Point the cache "directory" at a regular file: create_directories and
  // the write both fail, and the failure is observable.
  const fs::path blocker = fs::temp_directory_path() / "tfi_cache_blocker";
  WriteRaw(blocker.string(), "not a directory");
  ::setenv("TFI_CACHE_DIR", blocker.c_str(), 1);

  obs::MetricsRegistry metrics;
  EXPECT_FALSE(StoreCachedCampaign(AwkwardResult(SmallCampaign(2)), &metrics));
  EXPECT_EQ(metrics.GetCounter("campaign.cache.store_failures").value(), 1u);

  ::unsetenv("TFI_CACHE_DIR");
  fs::remove(blocker);
}

TEST(Quarantine, ThrowingTrialDoesNotAbortTheCampaign) {
  const CampaignSpec spec = SmallCampaign(10);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  obs::MetricsRegistry metrics;
  CampaignOptions opt = QuietLive();
  opt.jobs = 4;
  opt.obs.sinks.metrics = &metrics;
  std::atomic<int> calls{0};
  opt.trial_fault_hook = [&calls](std::size_t i) {
    if (i != 3) return;
    calls.fetch_add(1);
    throw std::runtime_error("deliberate trial fault");
  };
  const CampaignResult r = RunCampaign(spec, opt);

  EXPECT_EQ(calls.load(), 1);  // one attempt: a throwing trial is not retried
  ASSERT_EQ(r.trials.size(), 10u);
  EXPECT_EQ(r.trials[3].outcome, Outcome::kTrialError);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_EQ(r.quarantined[0].index, 3u);
  EXPECT_EQ(r.quarantined[0].message, "deliberate trial fault");
  EXPECT_EQ(metrics.GetCounter("campaign.trials.quarantined").value(), 1u);
  EXPECT_EQ(r.ByOutcome()[static_cast<int>(Outcome::kTrialError)], 1u);
  // Every other trial classified exactly as the clean run's.
  for (std::size_t i = 0; i < r.trials.size(); ++i) {
    if (i == 3) continue;
    EXPECT_EQ(r.trials[i], reference.trials[i]) << "trial " << i;
  }
}

TEST(Quarantine, QuarantinedResultIsNotCached) {
  // A quarantine is a hole in the sample whose cause (an exception, an
  // allocation failure) is not part of the CacheKey, so a result holding
  // one must not be served to a later run.
  ScopedCacheDir cache("tfi_test_quarantine_cache");
  const CampaignSpec spec = SmallCampaign(10);
  const CampaignResult reference = RunCampaign(spec, QuietLive());

  CampaignOptions faulty = QuietLive();
  faulty.use_cache = true;
  faulty.trial_fault_hook = [](std::size_t i) {
    if (i == 3) throw std::runtime_error("host fault");
  };
  const CampaignResult holed = RunCampaign(spec, faulty);
  ASSERT_EQ(holed.quarantined.size(), 1u);
  EXPECT_EQ(holed.trials[3].outcome, Outcome::kTrialError);

  obs::MetricsRegistry metrics;
  CampaignOptions clean = QuietLive();
  clean.use_cache = true;
  clean.obs.sinks.metrics = &metrics;
  const CampaignResult r = RunCampaign(spec, clean);
  EXPECT_EQ(metrics.GetCounter("campaign.cache.hits").value(), 0u);
  EXPECT_EQ(metrics.GetCounter("campaign.cache.misses").value(), 1u);
  EXPECT_TRUE(r.quarantined.empty());
  EXPECT_EQ(r.trials, reference.trials);
}

TEST(TornState, HalfWrittenCacheTempFilesAreIgnored) {
  // AtomicWriteFile writes to "<name>.tmp.<pid>.<seq>" then renames. A crash
  // between the two leaves a stray temp file; it must never be read as the
  // cache entry, and a subsequent atomic write must succeed alongside it.
  ScopedCacheDir cache("tfi_test_torn_tmp");
  const CampaignSpec spec = SmallCampaign(7);
  const CampaignResult stored = AwkwardResult(spec);
  ASSERT_TRUE(StoreCachedCampaign(stored));
  const std::string path = CachePath(spec);

  // Plant torn temp siblings mimicking an interrupted writer.
  WriteRaw(path + ".tmp.12345.0", "torn half-written payload");
  WriteRaw(path + ".tmp.12345.1", SlurpFile(path).substr(0, 10));

  const auto loaded = LoadCachedCampaign(spec);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->trials, stored.trials);

  // Overwriting through the same path still lands atomically.
  ASSERT_TRUE(StoreCachedCampaign(stored));
  EXPECT_TRUE(LoadCachedCampaign(spec).has_value());

  // And a torn temp file where the REAL entry is missing is a plain miss,
  // not a crash or a partial read.
  fs::remove(path);
  EXPECT_FALSE(LoadCachedCampaign(spec).has_value());
}

}  // namespace
}  // namespace tfsim
