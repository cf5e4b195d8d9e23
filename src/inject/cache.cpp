#include "inject/cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/env.h"
#include "util/fs.h"

namespace tfsim {
namespace {

constexpr const char* kMagicV2 = "tfi-cache v2";

// --- record serialization ----------------------------------------------------

void WriteTrial(std::ostream& os, const TrialRecord& t) {
  os << static_cast<int>(t.outcome) << ' ' << static_cast<int>(t.mode) << ' '
     << static_cast<int>(t.cat) << ' ' << static_cast<int>(t.storage) << ' '
     << t.cycles << ' ' << t.valid_instrs << ' ' << t.inflight << '\n';
}

bool ReadTrial(std::istream& in, TrialRecord& t) {
  int outcome, mode, cat, storage;
  in >> outcome >> mode >> cat >> storage >> t.cycles >> t.valid_instrs >>
      t.inflight;
  if (!in) return false;
  if (outcome < 0 || outcome >= kNumOutcomes || mode < 0 ||
      mode >= kNumFailureModes || cat < 0 || cat >= kNumStateCats ||
      storage < 0 || storage > 2)
    return false;
  t.outcome = static_cast<Outcome>(outcome);
  t.mode = static_cast<FailureMode>(mode);
  t.cat = static_cast<StateCat>(cat);
  t.storage = static_cast<Storage>(storage);
  return true;
}

// The v2 payload: the v1 body, but with every double at max_digits10 so a
// cache hit reproduces the live run's golden stats bit-exactly.
std::string SerializeResultPayload(const CampaignResult& r) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << r.trials.size() << '\n';
  for (int c = 0; c < kNumStateCats; ++c)
    os << r.inventory[c].latch_bits << ' ' << r.inventory[c].ram_bits << '\n';
  os << r.golden_ipc << ' ' << r.golden_bp_accuracy << ' '
     << r.golden_dcache_misses << '\n';
  for (const auto& t : r.trials) WriteTrial(os, t);
  return os.str();
}

// Parses a cache payload from `in` into `r` (spec already set).
bool ParseResultPayload(std::istream& in, CampaignResult& r) {
  std::size_t n = 0;
  in >> n;
  for (int c = 0; c < kNumStateCats; ++c)
    in >> r.inventory[c].latch_bits >> r.inventory[c].ram_bits;
  in >> r.golden_ipc >> r.golden_bp_accuracy >> r.golden_dcache_misses;
  if (!in) return false;
  r.trials.resize(n);
  for (auto& t : r.trials)
    if (!ReadTrial(in, t)) return false;
  // Rebuild the quarantine index (messages are diagnostic-only and not
  // persisted) so cached and live results agree on its shape.
  for (std::size_t i = 0; i < n; ++i)
    if (r.trials[i].outcome == Outcome::kTrialError)
      r.quarantined.push_back({i, std::string()});
  return true;
}

// --- checksummed envelope ----------------------------------------------------
//
//   <magic>\n
//   <crc32 hex> <payload bytes>\n
//   <payload>

std::string WrapChecksummed(const std::string& payload) {
  std::ostringstream os;
  os << kMagicV2 << '\n' << std::hex << Crc32(payload) << std::dec << ' '
     << payload.size() << '\n'
     << payload;
  return os.str();
}

// Reads and verifies the envelope after the magic line has been consumed.
// Returns the payload only if the declared length matches the remaining
// bytes exactly and the CRC verifies — torn, truncated, padded or tampered
// files all fail here and the caller falls back to a clean re-run.
std::optional<std::string> ReadChecksummed(std::istream& in) {
  std::string header;
  if (!std::getline(in, header)) return std::nullopt;
  std::istringstream hs(header);
  std::uint32_t crc = 0;
  std::size_t size = 0;
  hs >> std::hex >> crc >> std::dec >> size;
  if (!hs) return std::nullopt;
  std::string payload(size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in.gcount()) != size) return std::nullopt;
  if (in.peek() != std::char_traits<char>::eof()) return std::nullopt;
  if (Crc32(payload) != crc) return std::nullopt;
  return payload;
}

std::filesystem::path CachePath(const CampaignSpec& spec) {
  return std::filesystem::path(CacheDir()) / (spec.CacheKey() + ".txt");
}

}  // namespace

std::string CacheDir() {
  return EnvStr("TFI_CACHE_DIR", ".tfi_cache");
}

std::optional<CampaignResult> LoadCachedCampaign(const CampaignSpec& spec) {
  std::ifstream in(CachePath(spec), std::ios::binary);
  if (!in) return std::nullopt;

  std::string magic;
  std::getline(in, magic);

  CampaignResult r;
  r.spec = spec;
  if (magic == kMagicV2) {
    const auto payload = ReadChecksummed(in);
    if (!payload) return std::nullopt;
    std::istringstream body(*payload);
    if (!ParseResultPayload(body, r)) return std::nullopt;
    return r;
  }
  return std::nullopt;
}

// Best-effort atomic store: ensures the directory, writes temp + rename,
// and surfaces a failure once, on stderr and in the store_failures counter,
// instead of silently dropping the results. Nothing retries: a failed store
// only means the next run recomputes the campaign.
bool StoreCachedCampaign(const CampaignResult& result,
                         obs::MetricsRegistry* metrics) {
  const std::filesystem::path path = CachePath(result.spec);
  std::string error;
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  if (ec)
    error = "cannot create " + path.parent_path().string() + ": " +
            ec.message();
  else if (AtomicWriteFile(path,
                           WrapChecksummed(SerializeResultPayload(result)),
                           &error))
    return true;
  std::fprintf(stderr, "[cache] store failed: %s\n", error.c_str());
  if (metrics) metrics->GetCounter("campaign.cache.store_failures").Inc();
  return false;
}

}  // namespace tfsim
