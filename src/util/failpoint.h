// Failpoint chaos engine: named fault-injection sites on the harness's own
// durability and telemetry seams (cache loads and stores, atomic writes,
// JSONL sinks), so tests can prove campaigns degrade gracefully under I/O failure
// instead of assuming it.
//
// A site is a string constant at the seam:
//
//   if (fail::FailHere("cache.store")) return false;   // error-return site
//
// Policies are configured per site (off / error-return / throw),
// optionally firing only every Nth hit and/or a bounded number of times:
//
//   fail::Configure("cache.store", {fail::Action::kError, /*one_in=*/2});
//   fail::ConfigureFromSpec("cache.store=error@1in3;events.jsonl.write=throw");
//   fail::ConfigureFromEnv();   // reads TFI_FAILPOINTS (the spec syntax)
//
// Activation is strictly opt-in: the library never reads TFI_FAILPOINTS on
// its own — only binaries that call ConfigureFromEnv() (tfi) or tests that
// call Configure()/ConfigureFromSpec() arm the engine. When no site is configured,
// FailHere is a single relaxed atomic load — unmeasurable on the campaign
// hot path (the <0.5% BM_CampaignTrialsFast budget).
//
// Shipped sites (grep for fail::FailHere to audit):
//   fs.atomic_write      AtomicWriteFile, before the temp write
//   cache.load           LoadCachedCampaign (fires = treated as a miss)
//   cache.store          StoreCachedCampaign's write attempt (retried)
//   events.jsonl.write   JsonlEventSink::OnEvent (fires = stream failure)
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tfsim::fail {

enum class Action : std::uint8_t {
  kOff,    // site disabled (same as never configured)
  kError,  // FailHere returns true: the seam takes its error-return path
  kThrow,  // FailHere throws FailpointError("failpoint: <site>")
};

struct Policy {
  Action action = Action::kOff;
  // Fire on hits 1, 1+N, 1+2N, ... (the first hit always fires, so an
  // @1in2 store failure fails the first attempt and lets the retry succeed).
  std::uint64_t one_in = 1;
  std::uint64_t limit = 0;     // stop firing after this many; 0 = unlimited
};

// The exception kThrow sites raise (derives from std::runtime_error so every
// existing catch/quarantine path handles it like any other failure).
struct FailpointError : std::runtime_error {
  explicit FailpointError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
extern std::atomic<bool> g_armed;
bool Evaluate(const char* site);
}  // namespace detail

// The per-site probe. Zero-cost when disarmed: one relaxed atomic load.
inline bool FailHere(const char* site) {
  if (!detail::g_armed.load(std::memory_order_relaxed)) return false;
  return detail::Evaluate(site);
}

// Installs (or with Action::kOff clears) the policy for `site`. A site
// ending in '*' is a prefix pattern matching every site it prefixes; exact
// entries win over prefixes. Thread-safe.
void Configure(std::string_view site, const Policy& policy);

// Parses and installs a spec: `site=action[@1inN][#limit]`
// entries separated by ';' or ','. Examples:
//   cache.store=error@1in2            fail every other store attempt
//   events.jsonl.write=throw#1        one exception from the JSONL sink
//   cache.*=error                     every cache seam error-returns
// Returns false (with a diagnostic in *error) on malformed input; valid
// prefix entries before the malformed one stay installed.
bool ConfigureFromSpec(std::string_view spec, std::string* error = nullptr);

// Reads TFI_FAILPOINTS and applies ConfigureFromSpec. Returns the number of
// sites configured (0 when unset/empty); malformed specs warn on stderr and
// configure nothing further. This call is the opt-in: binaries that never
// call it are immune to the env var.
int ConfigureFromEnv();

// Clears every policy and counter and disarms the fast path.
void Reset();

// Probe counters for the configured entry `site` (the exact string passed
// to Configure, including any '*'): total FailHere evaluations that matched
// it, and how many fired. Zero for unknown entries.
std::uint64_t HitCount(std::string_view site);
std::uint64_t FireCount(std::string_view site);

}  // namespace tfsim::fail
