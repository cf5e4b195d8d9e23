#include "util/env.h"

#include <cstdlib>

namespace tfsim {

std::string EnvStr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::string(v) : fallback;
}

}  // namespace tfsim
