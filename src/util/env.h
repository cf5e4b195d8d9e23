// Environment-variable configuration: the results-cache directory
// (TFI_CACHE_DIR) is the one setting read from the environment.
#pragma once

#include <string>

namespace tfsim {

// Reads a string env var; returns fallback when unset.
std::string EnvStr(const char* name, const std::string& fallback);

}  // namespace tfsim
