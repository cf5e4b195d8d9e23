#include <gtest/gtest.h>

#include <vector>

#include "arch/memory.h"
#include "util/rng.h"

namespace tfsim {
namespace {

TEST(Memory, ReadsOfUnmappedAreZero) {
  Memory m;
  EXPECT_EQ(m.ReadByte(0x1234), 0);
  EXPECT_EQ(m.Read(0x99999, 8), 0u);
  EXPECT_EQ(m.MappedPages(), 0u);
}

TEST(Memory, ReadWriteAllSizes) {
  Memory m;
  for (int size : {1, 2, 4, 8}) {
    const std::uint64_t v = 0x1122334455667788ull &
                            (size == 8 ? ~0ULL : (1ULL << (8 * size)) - 1);
    m.Write(0x2000, v, size);
    EXPECT_EQ(m.Read(0x2000, size), v) << size;
  }
}

TEST(Memory, LittleEndianLayout) {
  Memory m;
  m.Write(0x100, 0x0A0B0C0D, 4);
  EXPECT_EQ(m.ReadByte(0x100), 0x0D);
  EXPECT_EQ(m.ReadByte(0x103), 0x0A);
}

TEST(Memory, CrossPageAccess) {
  Memory m;
  const std::uint64_t addr = kPageBytes - 3;
  m.Write(addr, 0x1234567890ABCDEFull, 8);
  EXPECT_EQ(m.Read(addr, 8), 0x1234567890ABCDEFull);
  EXPECT_EQ(m.MappedPages(), 2u);
}

TEST(Memory, HashIsContentDefinedNotOrderDefined) {
  Memory a, b;
  a.Write(0x10, 1, 8);
  a.Write(0x20, 2, 8);
  b.Write(0x20, 2, 8);
  b.Write(0x10, 1, 8);
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_TRUE(a == b);
}

TEST(Memory, HashReturnsAfterUndo) {
  Memory m;
  const std::uint64_t h0 = m.ContentHash();
  m.Write(0x500, 42, 8);
  EXPECT_NE(m.ContentHash(), h0);
  m.Write(0x500, 0, 8);
  EXPECT_EQ(m.ContentHash(), h0);  // zero contributes nothing
}

TEST(Memory, ZeroPagesDontAffectHash) {
  Memory a, b;
  a.Write(0x1000, 7, 1);
  b.Write(0x1000, 7, 1);
  b.Write(0x200000, 0, 8);  // allocates a zero page
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_TRUE(a == b);
}

TEST(Memory, HashDiffersForDifferentContent) {
  Memory a, b;
  a.Write(0x10, 1, 1);
  b.Write(0x10, 2, 1);
  EXPECT_NE(a.ContentHash(), b.ContentHash());
  EXPECT_FALSE(a == b);
}

TEST(Memory, HashDiffersForSameValueAtDifferentAddress) {
  Memory a, b;
  a.Write(0x10, 5, 1);
  b.Write(0x18, 5, 1);
  EXPECT_NE(a.ContentHash(), b.ContentHash());
}

TEST(Memory, CloneIsDeepAndEqual) {
  Memory m;
  m.Write(0x30, 77, 8);
  Memory c = m.Clone();
  EXPECT_EQ(c.ContentHash(), m.ContentHash());
  c.Write(0x30, 78, 8);
  EXPECT_EQ(m.Read(0x30, 8), 77u);
  EXPECT_NE(c.ContentHash(), m.ContentHash());
}

TEST(Memory, BytesRoundTrip) {
  Memory m;
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  m.WriteBytes(0x4000, data);
  EXPECT_EQ(m.ReadBytes(0x4000, 5), data);
}

TEST(Memory, RandomizedHashConsistency) {
  // Property: after arbitrary writes, two memories with identical content
  // have identical hashes even via different write histories.
  Rng rng(31);
  Memory a, b;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t addr = rng.NextBelow(4 * kPageBytes);
    const std::uint8_t v = static_cast<std::uint8_t>(rng.Next());
    a.WriteByte(addr, v);
    b.WriteByte(addr ^ 1, 0xFF);  // scribble elsewhere first
    b.WriteByte(addr ^ 1, a.ReadByte(addr ^ 1));  // then restore
    b.WriteByte(addr, v);
  }
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_TRUE(a == b);
}

TEST(Memory, WordWriteMatchesByteWrites) {
  // Write updates a store inside one aligned word as one word; the same
  // bytes written one at a time must leave the same image and hash.
  Rng rng(57);
  Memory words, bytes;
  const int sizes[] = {1, 2, 4, 8};
  for (int i = 0; i < 5000; ++i) {
    const int size = sizes[rng.NextBelow(4)];
    std::uint64_t addr;
    switch (rng.NextBelow(3)) {
      case 0:  // aligned to its size
        addr = rng.NextBelow(3 * kPageBytes) &
               ~static_cast<std::uint64_t>(size - 1);
        break;
      case 1:  // anywhere, mostly unaligned
        addr = rng.NextBelow(3 * kPageBytes);
        break;
      default:  // within 8 bytes of a page boundary, straddling it or not
        addr = (1 + rng.NextBelow(2)) * kPageBytes - 8 + rng.NextBelow(16);
        break;
    }
    const std::uint64_t value = rng.NextBool(0.25) ? 0 : rng.Next();
    words.Write(addr, value, size);
    std::vector<std::uint8_t> le(static_cast<std::size_t>(size));
    for (int b = 0; b < size; ++b)
      le[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(value >> (8 * b));
    bytes.WriteBytes(addr, le);
    ASSERT_EQ(words.ContentHash(), bytes.ContentHash()) << "write " << i;
    ASSERT_EQ(words.Read(addr, size), bytes.Read(addr, size)) << "write " << i;
  }
  EXPECT_TRUE(words == bytes);
  EXPECT_EQ(words.MappedPages(), bytes.MappedPages());
}

}  // namespace
}  // namespace tfsim
