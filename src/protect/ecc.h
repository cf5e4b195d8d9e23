// Hamming codes used by the Section 4 protection mechanisms:
//   * (73,65) SEC-DED for physical register file entries — 8 check bits per
//     65-bit entry, 7 Hamming plus overall parity, exactly the paper's
//     overhead ("eight bits for each of the 80 register file entries").
//   * (11,7) SEC for physical register pointers — 4 check bits per 7-bit
//     pointer ("4 bits of overhead to each 7 bit register file pointer").
//
// Classic layout: bit positions 1..n, power-of-two positions hold check
// bits, data bits fill the rest in order, check bit c covers every position
// with bit c set, and the syndrome names the corrupted position. The codec
// is word-parallel: check bit c is the parity of the data under a
// compile-time cover mask, and (11,7) check bits come from a table.
#pragma once

#include <cstdint>

namespace tfsim {

inline constexpr int kRegfileDataBits = 65;
inline constexpr int kRegfileEccBits = 8;  // 7 Hamming + overall parity
inline constexpr int kRegptrDataBits = 7;
inline constexpr int kRegptrEccBits = 4;   // Hamming(11,7)

// 65-bit values travel as (lo 64 bits, bit 64) pairs.
struct Word65 {
  std::uint64_t lo = 0;
  bool hi = false;
  bool operator==(const Word65&) const = default;
};

struct EccDecodeResult {
  Word65 data;              // possibly corrected data
  std::uint64_t check = 0;  // possibly corrected check bits
  bool corrected = false;   // a single-bit error was repaired
  bool uncorrectable = false;  // double error detected (SEC-DED only)
};

std::uint64_t EncodeRegfileEcc(Word65 v);
// Checks and (single-bit) corrects a register-file entry.
EccDecodeResult DecodeRegfileEcc(Word65 v, std::uint64_t check);

std::uint64_t EncodeRegptrEcc(std::uint64_t ptr);
// Checks and (single-bit) corrects a register pointer.
EccDecodeResult DecodeRegptrEcc(std::uint64_t ptr, std::uint64_t check);

}  // namespace tfsim
