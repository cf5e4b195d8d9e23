#include "util/failpoint.h"

#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "util/env.h"

namespace tfsim::fail {
namespace {

struct SiteState {
  Policy policy;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

struct Registry {
  std::mutex mu;
  // Keyed by the configured string (exact sites and '*'-suffixed prefixes
  // share the map; lookup tries exact first, then the longest prefix).
  std::map<std::string, SiteState, std::less<>> sites;
};

Registry& Reg() {
  static Registry* r = new Registry;  // leaked: usable during shutdown
  return *r;
}

SiteState* Find(Registry& reg, const char* site) {
  const std::string_view sv(site);
  if (auto it = reg.sites.find(sv); it != reg.sites.end()) return &it->second;
  SiteState* best = nullptr;
  std::size_t best_len = 0;
  for (auto& [key, state] : reg.sites) {
    if (key.empty() || key.back() != '*') continue;
    const std::string_view prefix(key.data(), key.size() - 1);
    if (sv.substr(0, prefix.size()) == prefix && prefix.size() >= best_len) {
      best = &state;
      best_len = prefix.size();
    }
  }
  return best;
}

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};

bool Evaluate(const char* site) {
  {
    std::lock_guard<std::mutex> lock(Reg().mu);
    SiteState* s = Find(Reg(), site);
    if (s == nullptr || s->policy.action == Action::kOff) return false;
    ++s->hits;
    const std::uint64_t n = s->policy.one_in ? s->policy.one_in : 1;
    if ((s->hits - 1) % n != 0) return false;
    if (s->policy.limit && s->fires >= s->policy.limit) return false;
    ++s->fires;
    if (s->policy.action == Action::kError) return true;
  }
  // kThrow: throw outside the lock so concurrent probes never serialize on a
  // firing site.
  throw FailpointError(std::string("failpoint: ") + site);
}

}  // namespace detail

void Configure(std::string_view site, const Policy& policy) {
  std::lock_guard<std::mutex> lock(Reg().mu);
  if (policy.action == Action::kOff) {
    Reg().sites.erase(std::string(site));
  } else {
    Reg().sites[std::string(site)] = SiteState{policy, 0, 0};
  }
  detail::g_armed.store(!Reg().sites.empty(), std::memory_order_relaxed);
}

namespace {

bool ParseEntry(std::string_view entry, std::string* error) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    if (error) *error = "expected site=action in '" + std::string(entry) + "'";
    return false;
  }
  const std::string_view site = entry.substr(0, eq);
  std::string_view rest = entry.substr(eq + 1);
  Policy p;

  // Trailing decorations first: #limit, then @1inN.
  auto parse_u64 = [&](std::string_view s, std::uint64_t* out) {
    if (s.empty()) return false;
    std::uint64_t v = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    *out = v;
    return true;
  };
  if (const std::size_t hash = rest.rfind('#');
      hash != std::string_view::npos) {
    if (!parse_u64(rest.substr(hash + 1), &p.limit)) {
      if (error) *error = "bad #limit in '" + std::string(entry) + "'";
      return false;
    }
    rest = rest.substr(0, hash);
  }
  if (const std::size_t at = rest.rfind('@'); at != std::string_view::npos) {
    const std::string_view oin = rest.substr(at + 1);
    if (oin.substr(0, 3) != "1in" || !parse_u64(oin.substr(3), &p.one_in) ||
        p.one_in == 0) {
      if (error) *error = "bad @1inN in '" + std::string(entry) + "'";
      return false;
    }
    rest = rest.substr(0, at);
  }
  const std::string_view action = rest;
  if (action == "off") {
    p.action = Action::kOff;
  } else if (action == "error") {
    p.action = Action::kError;
  } else if (action == "throw") {
    p.action = Action::kThrow;
  } else {
    if (error)
      *error = "unknown action '" + std::string(action) + "' in '" +
               std::string(entry) + "' (off|error|throw)";
    return false;
  }
  Configure(site, p);
  return true;
}

}  // namespace

bool ConfigureFromSpec(std::string_view spec, std::string* error) {
  while (!spec.empty()) {
    const std::size_t sep = spec.find_first_of(";,");
    std::string_view entry = spec.substr(0, sep);
    // Trim surrounding whitespace.
    while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\t'))
      entry.remove_prefix(1);
    while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\t'))
      entry.remove_suffix(1);
    if (!entry.empty() && !ParseEntry(entry, error)) return false;
    if (sep == std::string_view::npos) break;
    spec.remove_prefix(sep + 1);
  }
  return true;
}

int ConfigureFromEnv() {
  const std::string spec = EnvStr("TFI_FAILPOINTS", "");
  if (spec.empty()) return 0;
  std::string error;
  if (!ConfigureFromSpec(spec, &error)) {
    std::fprintf(stderr, "TFI_FAILPOINTS: %s\n", error.c_str());
  }
  std::lock_guard<std::mutex> lock(Reg().mu);
  return static_cast<int>(Reg().sites.size());
}

void Reset() {
  std::lock_guard<std::mutex> lock(Reg().mu);
  Reg().sites.clear();
  detail::g_armed.store(false, std::memory_order_relaxed);
}

std::uint64_t HitCount(std::string_view site) {
  std::lock_guard<std::mutex> lock(Reg().mu);
  const auto it = Reg().sites.find(site);
  return it == Reg().sites.end() ? 0 : it->second.hits;
}

std::uint64_t FireCount(std::string_view site) {
  std::lock_guard<std::mutex> lock(Reg().mu);
  const auto it = Reg().sites.find(site);
  return it == Reg().sites.end() ? 0 : it->second.fires;
}

}  // namespace tfsim::fail
