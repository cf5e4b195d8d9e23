// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
// guarding the v2 results cache against torn or tampered files. Matches zlib's crc32(), so files can be checked
// with standard tools.
#pragma once

#include <cstdint>
#include <string_view>

namespace tfsim {

// CRC of `data`, optionally continuing from a previous CRC (pass the prior
// return value as `crc` to checksum a stream incrementally; 0 starts fresh).
std::uint32_t Crc32(std::string_view data, std::uint32_t crc = 0);

}  // namespace tfsim
