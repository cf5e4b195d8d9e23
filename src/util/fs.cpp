#include "util/fs.h"

#include <atomic>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace tfsim {
namespace {

// Temp names carry the pid and a process-wide sequence number so concurrent
// writers (threads or processes sharing a cache directory) never collide on
// the temporary; the final rename then serializes at the filesystem.
std::string UniqueSuffix() {
  static std::atomic<std::uint64_t> seq{0};
  const std::uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
#ifndef _WIN32
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return ".tmp." + std::to_string(pid) + "." + std::to_string(n);
}

bool Fail(const std::string& what, std::string* error) {
  if (error) *error = what;
  return false;
}

}  // namespace

bool AtomicWriteFile(const std::filesystem::path& path,
                     std::string_view contents, std::string* error) {
  const std::filesystem::path tmp(path.string() + UniqueSuffix());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Fail("cannot create " + tmp.string(), error);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      return Fail("short write to " + tmp.string(), error);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return Fail("rename to " + path.string() + " failed: " + ec.message(),
                error);
  }
  return true;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace tfsim
