// On-disk campaign results cache.
//
// Campaigns are expensive and `tfi figures` regenerates the figures from
// the same few campaigns run after run, so results are cached under
// TFI_CACHE_DIR (default <cwd>/.tfi_cache) keyed by a versioned content hash
// of the campaign spec. Delete the directory (or change --trials) to force
// recomputation.
//
// Cache files are "tfi-cache v2": a CRC32-checksummed payload written via
// temp-file + atomic rename, with every floating-point field serialized at
// max_digits10 so cache hits reproduce golden stats bit-exactly. Files whose
// magic line, checksum, length or structure do not verify are treated as
// absent (the campaign re-runs cleanly). Only completed campaigns are
// stored; nothing on disk describes a campaign that is half done.
#pragma once

#include <optional>
#include <string>

#include "inject/campaign.h"

namespace tfsim {

std::string CacheDir();

std::optional<CampaignResult> LoadCachedCampaign(const CampaignSpec& spec);

// Stores `result` in the cache (best-effort, one attempt). On failure —
// unwritable cache directory, failed atomic rename — returns false, warns
// once on stderr, and increments `campaign.cache.store_failures` when
// `metrics` is non-null. The entry is simply recomputed by the next run.
bool StoreCachedCampaign(const CampaignResult& result,
                         obs::MetricsRegistry* metrics = nullptr);

}  // namespace tfsim
