// Shared metadata for the observability exports: a schema version stamped
// into every obs JSON export (metrics, propagation-trace header, event
// journal header, heatmap) and an RFC3339 UTC timestamp helper.
//
// Versioning contract: readers must accept version-less files (the PR 1
// exports predate the stamp) and files whose schema_version is <= the
// current value. Bump kObsSchemaVersion when a field is renamed or removed,
// not when one is added.
#pragma once

#include <chrono>
#include <string>

namespace tfsim::obs {

// Version 2: adds schema_version/generated_at stamps, the event-journal
// JSONL format, and the vulnerability-heatmap export. (Version 1 is the
// implicit, unstamped PR 1 format.)
// Version 3: campaign_finish loses its `interrupted` field, and the
// checkpoint_flush, cancel_requested and checkpoint_disabled events are gone.
// Version 4: campaign_finish loses its dropped-event count (the journal
// delivers synchronously and drops nothing). The trial_retry event went
// later under the same version: no remaining event renders differently.
inline constexpr int kObsSchemaVersion = 4;

// `tp` as an RFC3339 UTC timestamp: "2026-08-08T12:34:56Z".
std::string Rfc3339Utc(std::chrono::system_clock::time_point tp);

// The current wall-clock time as RFC3339 UTC.
std::string Rfc3339Now();

}  // namespace tfsim::obs
