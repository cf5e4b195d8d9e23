// Environment-variable configuration helpers: the results-cache directory
// (TFI_CACHE_DIR), tfi's observation-window default (TFI_WINDOW) and the
// fuzz smoke's seed count (TFI_SMOKE_SEEDS).
#pragma once

#include <cstdint>
#include <string>

namespace tfsim {

// Reads an integer env var; returns fallback when unset or unparsable.
std::int64_t EnvInt(const char* name, std::int64_t fallback);

// Reads a string env var; returns fallback when unset.
std::string EnvStr(const char* name, const std::string& fallback);

}  // namespace tfsim
