#include <gtest/gtest.h>

#include <cstdint>

#include "protect/ecc.h"
#include "util/rng.h"

namespace tfsim {
namespace {

// The original bit-serial codec, generic over data width k <= 65 and check
// width r: the reference oracle for the word-parallel one in protect/ecc.h.
namespace reference {

bool DataBit(const Word65& d, int i) {
  return i < 64 ? ((d.lo >> i) & 1) != 0 : d.hi;
}

void SetDataBit(Word65& d, int i, bool v) {
  if (i < 64) {
    d.lo = (d.lo & ~(1ULL << i)) | (static_cast<std::uint64_t>(v) << i);
  } else {
    d.hi = v;
  }
}

bool IsPow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

// Number of Hamming check bits required for k data bits.
int HammingBits(int k) {
  int r = 0;
  while ((1 << r) < k + r + 1) ++r;
  return r;
}

std::uint64_t EccEncode(Word65 data, int k, int r) {
  const int rh = HammingBits(k);
  const bool dedp = r > rh;  // extra overall-parity bit
  const int n = k + rh;      // codeword length (1-indexed positions)

  // Lay data bits into non-power-of-two positions.
  std::uint64_t check = 0;
  int di = 0;
  bool overall = false;
  for (int pos = 1; pos <= n; ++pos) {
    if (IsPow2(pos)) continue;
    const bool bit = DataBit(data, di++);
    overall ^= bit;
    if (!bit) continue;
    // This data bit feeds every check bit whose index divides its position.
    for (int c = 0; c < rh; ++c)
      if (pos & (1 << c)) check ^= 1ULL << c;
  }
  if (dedp) {
    // Overall parity covers data + hamming check bits.
    bool p = overall;
    for (int c = 0; c < rh; ++c) p ^= ((check >> c) & 1) != 0;
    check |= static_cast<std::uint64_t>(p) << rh;
  }
  return check;
}

EccDecodeResult EccDecode(Word65 data, std::uint64_t check, int k, int r) {
  EccDecodeResult out;
  out.data = data;
  out.check = check;

  const int rh = HammingBits(k);
  const bool dedp = r > rh;
  const std::uint64_t expected = EccEncode(data, k, rh);  // hamming part only
  const std::uint64_t stored_h = check & ((1ULL << rh) - 1);
  const std::uint64_t syndrome = expected ^ stored_h;

  bool overall_mismatch = false;
  if (dedp) {
    bool p = false;
    int di = 0;
    const int n = k + rh;
    for (int pos = 1; pos <= n; ++pos) {
      if (IsPow2(pos)) continue;
      p ^= DataBit(data, di++);
    }
    for (int c = 0; c < rh; ++c) p ^= ((stored_h >> c) & 1) != 0;
    overall_mismatch = p != (((check >> rh) & 1) != 0);
  }

  if (syndrome == 0) {
    if (dedp && overall_mismatch) {
      // Error in the overall parity bit itself: repair it.
      out.check = expected | (static_cast<std::uint64_t>(
                                  !((check >> rh) & 1))
                              << rh);
      out.corrected = true;
    }
    return out;
  }

  if (dedp && !overall_mismatch) {
    // Non-zero syndrome with even overall parity: double error.
    out.uncorrectable = true;
    return out;
  }

  const int pos = static_cast<int>(syndrome);
  if (IsPow2(pos)) {
    // A check bit flipped; the data is fine. Repair the check bits.
    int c = 0;
    while ((1 << c) != pos) ++c;
    out.check = check ^ (1ULL << c);
    out.corrected = true;
    return out;
  }
  if (pos > k + rh) {
    out.uncorrectable = true;  // syndrome names a non-existent position
    return out;
  }
  // Map position back to the data bit index it holds.
  int di = 0;
  for (int p = 1; p < pos; ++p)
    if (!IsPow2(p)) ++di;
  SetDataBit(out.data, di, !DataBit(out.data, di));
  out.corrected = true;
  return out;
}

}  // namespace reference

TEST(EccRegptr, CleanDecode) {
  for (std::uint64_t p = 0; p < 128; ++p) {
    const std::uint64_t check = EncodeRegptrEcc(p);
    const EccDecodeResult r = DecodeRegptrEcc(p, check);
    EXPECT_FALSE(r.corrected);
    EXPECT_FALSE(r.uncorrectable);
    EXPECT_EQ(r.data.lo, p);
  }
}

// Exhaustive sweep: every single-bit error in every (11,7) codeword is
// corrected — data bits and check bits alike.
class RegptrBitTest : public ::testing::TestWithParam<int> {};

TEST_P(RegptrBitTest, SingleBitErrorCorrected) {
  const int bit = GetParam();
  for (std::uint64_t p = 0; p < 128; p += 3) {
    std::uint64_t data = p;
    std::uint64_t check = EncodeRegptrEcc(p);
    if (bit < 7) data ^= 1ULL << bit;
    else check ^= 1ULL << (bit - 7);
    const EccDecodeResult r = DecodeRegptrEcc(data, check);
    EXPECT_TRUE(r.corrected) << "p=" << p << " bit=" << bit;
    EXPECT_EQ(r.data.lo, p) << "p=" << p << " bit=" << bit;
    EXPECT_EQ(r.check, EncodeRegptrEcc(p));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBits, RegptrBitTest, ::testing::Range(0, 11));

TEST(EccRegfile, CleanDecode) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Word65 v{rng.Next(), rng.NextBool(0.5)};
    const EccDecodeResult r = DecodeRegfileEcc(v, EncodeRegfileEcc(v));
    EXPECT_FALSE(r.corrected);
    EXPECT_FALSE(r.uncorrectable);
    EXPECT_EQ(r.data, v);
  }
}

// Exhaustive data-bit sweep for the (73,65) SEC-DED register-file code.
class RegfileBitTest : public ::testing::TestWithParam<int> {};

TEST_P(RegfileBitTest, SingleDataBitErrorCorrected) {
  const int bit = GetParam();
  Rng rng(static_cast<std::uint64_t>(bit) + 100);
  for (int i = 0; i < 20; ++i) {
    const Word65 v{rng.Next(), rng.NextBool(0.5)};
    const std::uint64_t check = EncodeRegfileEcc(v);
    Word65 bad = v;
    if (bit < 64) bad.lo ^= 1ULL << bit;
    else bad.hi = !bad.hi;
    const EccDecodeResult r = DecodeRegfileEcc(bad, check);
    EXPECT_TRUE(r.corrected) << bit;
    EXPECT_EQ(r.data, v) << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDataBits, RegfileBitTest, ::testing::Range(0, 65));

TEST(EccRegfile, SingleCheckBitErrorCorrected) {
  const Word65 v{0xDEADBEEFCAFEF00Dull, true};
  const std::uint64_t check = EncodeRegfileEcc(v);
  for (int bit = 0; bit < kRegfileEccBits; ++bit) {
    const EccDecodeResult r = DecodeRegfileEcc(v, check ^ (1ULL << bit));
    EXPECT_TRUE(r.corrected) << bit;
    EXPECT_EQ(r.data, v) << bit;
    EXPECT_EQ(r.check, check) << bit;
  }
}

TEST(EccRegfile, DoubleErrorsDetectedNotMiscorrected) {
  // SEC-DED: two data-bit errors must flag uncorrectable (and never silently
  // "repair" to wrong data).
  Rng rng(77);
  int detected = 0;
  const int kTrials = 300;
  for (int i = 0; i < kTrials; ++i) {
    const Word65 v{rng.Next(), rng.NextBool(0.5)};
    const std::uint64_t check = EncodeRegfileEcc(v);
    const int b1 = static_cast<int>(rng.NextBelow(65));
    int b2 = static_cast<int>(rng.NextBelow(65));
    while (b2 == b1) b2 = static_cast<int>(rng.NextBelow(65));
    Word65 bad = v;
    for (int b : {b1, b2}) {
      if (b < 64) bad.lo ^= 1ULL << b;
      else bad.hi = !bad.hi;
    }
    const EccDecodeResult r = DecodeRegfileEcc(bad, check);
    EXPECT_FALSE(r.corrected && r.data == v) << "silent acceptance";
    if (r.uncorrectable) ++detected;
    if (r.corrected) {
      EXPECT_NE(r.data, v);  // (would be a miracle)
    }
  }
  EXPECT_EQ(detected, kTrials);  // all double errors flagged
}

// The word-parallel codec must return exactly what the bit-serial one does
// for every input, valid codeword or not: faults reach any (data, check)
// pair, and the corner cases (parity-bit repair, double error, syndrome past
// the codeword) decide trial outcomes.
::testing::AssertionResult SameDecode(const EccDecodeResult& got,
                                      const EccDecodeResult& want) {
  if (got.data == want.data && got.check == want.check &&
      got.corrected == want.corrected &&
      got.uncorrectable == want.uncorrectable)
    return ::testing::AssertionSuccess();
  const auto show = [](const EccDecodeResult& r) {
    return ::testing::Message()
           << "{data " << r.data.lo << "/" << r.data.hi << ", check "
           << r.check << ", corrected " << r.corrected << ", uncorrectable "
           << r.uncorrectable << "}";
  };
  return ::testing::AssertionFailure()
         << "got " << show(got) << ", want " << show(want);
}

EccDecodeResult RefDecodeRegfile(Word65 v, std::uint64_t check) {
  return reference::EccDecode(v, check, kRegfileDataBits, kRegfileEccBits);
}

TEST(EccCodec, MatchesBitSerialReference) {
  // (11,7): every encode and every (data, check) decode.
  for (std::uint64_t d = 0; d < 128; ++d) {
    ASSERT_EQ(EncodeRegptrEcc(d),
              reference::EccEncode({d, false}, kRegptrDataBits,
                                   kRegptrEccBits))
        << d;
    for (std::uint64_t check = 0; check < 16; ++check)
      ASSERT_TRUE(SameDecode(DecodeRegptrEcc(d, check),
                             reference::EccDecode({d, false}, check,
                                                  kRegptrDataBits,
                                                  kRegptrEccBits)))
          << "ptr=" << d << " check=" << check;
  }

  // (73,65): every single- and double-bit flip of the 73-bit codeword
  // (bits 0..64 data, 65..72 check) of random words.
  Rng rng(2024);
  const auto flip = [](Word65& v, std::uint64_t& check, int bit) {
    if (bit < 64) v.lo ^= 1ULL << bit;
    else if (bit == 64) v.hi = !v.hi;
    else check ^= 1ULL << (bit - 65);
  };
  for (int w = 0; w < 64; ++w) {
    const Word65 v{rng.Next(), rng.NextBool(0.5)};
    const std::uint64_t check = EncodeRegfileEcc(v);
    ASSERT_EQ(check, reference::EccEncode(v, kRegfileDataBits,
                                          kRegfileEccBits));
    for (int b1 = 0; b1 < 73; ++b1) {
      for (int b2 = b1; b2 < 73; ++b2) {  // b2 == b1: a single flip
        Word65 bad = v;
        std::uint64_t bad_check = check;
        flip(bad, bad_check, b1);
        if (b2 != b1) flip(bad, bad_check, b2);
        ASSERT_TRUE(SameDecode(DecodeRegfileEcc(bad, bad_check),
                               RefDecodeRegfile(bad, bad_check)))
            << "word " << w << " bits " << b1 << "," << b2;
      }
    }
  }

  // (73,65): random words against arbitrary 8-bit check bytes (mostly
  // invalid codewords), then a few with garbage above the check byte.
  for (int i = 0; i < 110000; ++i) {
    const Word65 v{rng.Next(), rng.NextBool(0.5)};
    const std::uint64_t check =
        i < 100000 ? rng.NextBelow(256) : rng.Next();
    ASSERT_EQ(EncodeRegfileEcc(v),
              reference::EccEncode(v, kRegfileDataBits, kRegfileEccBits));
    ASSERT_TRUE(SameDecode(DecodeRegfileEcc(v, check),
                           RefDecodeRegfile(v, check)))
        << "data=" << v.lo << "/" << v.hi << " check=" << check;
  }
}

}  // namespace
}  // namespace tfsim
