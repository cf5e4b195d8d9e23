// Filesystem helpers: whole-file reads, and crash-consistent writes for
// on-disk state.
//
// The results cache must never be observed half-written: a reader either sees the previous complete file or the new
// complete file. AtomicWriteFile gets that by writing a uniquely-named
// temporary in the target directory and renaming it over the destination
// (rename within one directory is atomic on POSIX).
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

namespace tfsim {

// Writes `contents` to `path` atomically (temp file + rename). Returns
// false on failure, with a diagnostic in *error when non-null; any
// temporary is cleaned up. The parent directory must already exist.
bool AtomicWriteFile(const std::filesystem::path& path,
                     std::string_view contents, std::string* error = nullptr);

// Returns the whole contents of `path`; throws std::runtime_error
// ("cannot read PATH") if it cannot be opened.
std::string ReadFile(const std::filesystem::path& path);

}  // namespace tfsim
