// Minimal declarative command-line flag parser shared by the tfi
// subcommands and the benchmark binary, so --jobs/--trials/telemetry flags
// spell and fail identically everywhere.
//
// Flags are registered by name with a bound target (string, int64 or
// presence-bool); Parse() walks argv, fills targets, collects non-flag
// tokens as positionals, and rejects the first unknown --flag or flag
// missing its value with a diagnostic (flags are never silently treated as
// positional workload names).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tfsim {

class ArgParser {
 public:
  // Registers a presence flag: `--name` sets *target to true.
  void AddFlag(const std::string& name, bool* target, const std::string& help);
  // Registers `--name N`, parsed as a base-10 signed integer.
  void AddInt(const std::string& name, std::int64_t* target,
              const std::string& help);
  // Registers `--name VALUE`, stored verbatim.
  void AddStr(const std::string& name, std::string* target,
              const std::string& help);

  // Parses argv[begin..argc). Returns false on the first unknown --flag,
  // flag missing its value, or malformed integer, with the diagnostic in
  // error(). Targets already assigned before the error keep their values.
  bool Parse(int argc, char** argv, int begin = 1);

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }

  // One "  --name <kind>  help" line per registered flag, in registration
  // order, for embedding in a tool's usage text.
  std::string Help() const;

 private:
  enum class Kind { kFlag, kInt, kStr };
  struct Spec {
    std::string name;  // including the leading "--"
    Kind kind;
    void* target;
    std::string help;
  };
  const Spec* Find(const std::string& name) const;

  std::vector<Spec> specs_;
  std::vector<std::string> positional_;
  std::string error_;
};

// Resolves a --jobs value to a concrete worker count: positive values are
// used as-is; 0 or negative means one worker per hardware thread, falling
// back to 1 when std::thread::hardware_concurrency() reports 0 (the value
// is unknown on some platforms) so a campaign never spawns zero workers.
int ResolveJobs(std::int64_t jobs);

}  // namespace tfsim
