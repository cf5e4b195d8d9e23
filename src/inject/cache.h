// On-disk campaign results cache and checkpoint journals.
//
// Several paper figures derive from the same campaign (Figures 3/4/7/8 share
// the latches+RAMs baseline campaign), and each bench binary regenerates one
// figure, so results are cached under TFI_CACHE_DIR (default
// <cwd>/.tfi_cache) keyed by a versioned content hash of the campaign spec.
// Delete the directory (or change TFI_TRIALS) to force recomputation.
//
// Cache files are "tfi-cache v2": a CRC32-checksummed payload written via
// temp-file + atomic rename, with every floating-point field serialized at
// max_digits10 so cache hits reproduce golden stats bit-exactly. Files whose
// magic line, checksum, length or structure do not verify are treated as
// absent (the campaign re-runs cleanly).
//
// Checkpoint journals ("<key>.ckpt", same checksummed-atomic envelope) hold
// the contiguous completed-trial prefix of an in-flight campaign, flushed
// every CampaignOptions::checkpoint_every trials and on interruption, so a
// killed campaign resumes exactly where it stopped.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "inject/campaign.h"

namespace tfsim {

std::string CacheDir();

std::optional<CampaignResult> LoadCachedCampaign(const CampaignSpec& spec);

// Stores `result` in the cache (best-effort). Transient failures retry with
// bounded backoff (3 attempts); on final failure — unwritable cache
// directory, failed atomic rename — returns false, warns on stderr, and
// increments `campaign.cache.store_failures` when `metrics` is non-null.
// Chaos sites: `cache.store` per attempt, `fs.atomic_write` underneath.
bool StoreCachedCampaign(const CampaignResult& result,
                         obs::MetricsRegistry* metrics = nullptr);

// --- checkpoint journal ------------------------------------------------------

// Loads the checkpoint journal for `spec`, if a valid one exists. The
// returned records are the contiguous completed prefix (trial indices
// [0, size)) of a previous interrupted run of the same CacheKey.
std::optional<std::vector<TrialRecord>> LoadCampaignCheckpoint(
    const CampaignSpec& spec);

// Atomically writes the checkpoint journal for `spec` holding `prefix`
// (completed trials [0, prefix.size())). Best-effort like the cache store,
// with the same retry/backoff; final failures increment
// `campaign.checkpoint.store_failures` (and the campaign then disables
// checkpointing for the rest of the run — see RunCampaign).
bool StoreCampaignCheckpoint(const CampaignSpec& spec,
                             const std::vector<TrialRecord>& prefix,
                             obs::MetricsRegistry* metrics = nullptr);

// Deletes the journal for `spec` (after the campaign completes).
void RemoveCampaignCheckpoint(const CampaignSpec& spec);

// Journal path for `spec` (exposed for tests and diagnostics).
std::string CampaignCheckpointPath(const CampaignSpec& spec);

}  // namespace tfsim
