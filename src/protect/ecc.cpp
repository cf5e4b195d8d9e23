#include "protect/ecc.h"

#include <array>
#include <bit>
#include <span>

namespace tfsim {
namespace {

// Codeword position of each data bit: the non-power-of-two positions 1..n.
template <int K>
constexpr std::array<std::uint8_t, K> DataPositions() {
  std::array<std::uint8_t, K> pos{};
  for (unsigned i = 0, p = 1; i < K; ++p)
    if (!std::has_single_bit(p)) pos[i++] = static_cast<std::uint8_t>(p);
  return pos;
}

// Data index held at each codeword position 0..n (check positions unused).
template <int K>
constexpr auto DataIndexAt() {
  constexpr auto pos = DataPositions<K>();
  std::array<std::uint8_t, pos[K - 1] + 1> at{};
  for (int i = 0; i < K; ++i) at[pos[i]] = static_cast<std::uint8_t>(i);
  return at;
}

// mask[c] selects the data bits (of the low 64) whose position has bit c set.
template <int K, int R>
constexpr std::array<std::uint64_t, R> CoverMasks() {
  constexpr auto pos = DataPositions<K>();
  std::array<std::uint64_t, R> mask{};
  for (int i = 0; i < K && i < 64; ++i)
    for (int c = 0; c < R; ++c)
      if ((pos[i] >> c) & 1) mask[c] |= 1ULL << i;
  return mask;
}

// GCC folds popcount & 1 into an inline parity sequence, even without
// -mpopcnt.
constexpr std::uint64_t Parity(std::uint64_t x) { return std::popcount(x) & 1; }

constexpr int kRegfileHammingBits = kRegfileEccBits - 1;  // then parity
constexpr auto kRegfileMasks =
    CoverMasks<kRegfileDataBits, kRegfileHammingBits>();
// Data bit 64 sits at position 72, so it feeds exactly the check bits of 72.
constexpr std::uint64_t kRegfileHiPos = DataPositions<kRegfileDataBits>()[64];
constexpr auto kRegfileIndexAt = DataIndexAt<kRegfileDataBits>();

constexpr auto kRegptrCheck = [] {
  constexpr auto mask = CoverMasks<kRegptrDataBits, kRegptrEccBits>();
  std::array<std::uint8_t, 128> check{};
  for (std::uint64_t d = 0; d < 128; ++d)
    for (int c = 0; c < kRegptrEccBits; ++c)
      check[d] |= static_cast<std::uint8_t>(Parity(d & mask[c]) << c);
  return check;
}();
constexpr auto kRegptrIndexAt = DataIndexAt<kRegptrDataBits>();

// The Hamming check bits of a register-file entry.
std::uint64_t RegfileHamming(Word65 v) {
  std::uint64_t h = v.hi ? kRegfileHiPos : 0;
  for (int c = 0; c < kRegfileHammingBits; ++c)
    h ^= Parity(v.lo & kRegfileMasks[c]) << c;
  return h;
}

// A nonzero syndrome with odd overall parity (or no parity bit): repair the
// check bit or data bit it names, unless it names no position at all.
EccDecodeResult RepairPosition(Word65 data, std::uint64_t check,
                               std::uint64_t syndrome,
                               std::span<const std::uint8_t> index_at) {
  EccDecodeResult out{data, check};
  // A power-of-two syndrome names a check bit; the data is fine. (Not
  // std::has_single_bit: without -mpopcnt that is a libgcc call.)
  if ((syndrome & (syndrome - 1)) == 0) {
    out.check = check ^ syndrome;
  } else if (syndrome >= index_at.size()) {
    out.uncorrectable = true;
    return out;
  } else {
    const int di = index_at[syndrome];
    if (di < 64) out.data.lo ^= 1ULL << di;
    else out.data.hi = !out.data.hi;
  }
  out.corrected = true;
  return out;
}

}  // namespace

std::uint64_t EncodeRegfileEcc(Word65 v) {
  const std::uint64_t h = RegfileHamming(v);
  return h | (Parity(v.lo) ^ v.hi ^ Parity(h)) << 7;
}

EccDecodeResult DecodeRegfileEcc(Word65 v, std::uint64_t check) {
  const std::uint64_t syndrome = RegfileHamming(v) ^ (check & 0x7F);
  // Overall parity over the data, the Hamming bits and the parity bit.
  const bool parity_mismatch = Parity(v.lo) ^ v.hi ^ Parity(check & 0xFF);
  if (syndrome == 0) {
    if (!parity_mismatch) return {v, check};
    return {v, (check ^ 0x80) & 0xFF, true};  // the parity bit itself flipped
  }
  // Non-zero syndrome with even overall parity: double error.
  if (!parity_mismatch) return {v, check, false, true};
  return RepairPosition(v, check, syndrome, kRegfileIndexAt);
}

std::uint64_t EncodeRegptrEcc(std::uint64_t ptr) {
  return kRegptrCheck[ptr & 0x7F];
}

EccDecodeResult DecodeRegptrEcc(std::uint64_t ptr, std::uint64_t check) {
  ptr &= 0x7F;
  const std::uint64_t syndrome = kRegptrCheck[ptr] ^ (check & 0xF);
  if (syndrome == 0) return {{ptr, false}, check};
  return RepairPosition({ptr, false}, check, syndrome, kRegptrIndexAt);
}

}  // namespace tfsim
