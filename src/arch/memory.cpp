#include "arch/memory.h"

#include <cstring>

#include "util/rng.h"

namespace tfsim {
namespace {

std::uint64_t WordContribution(std::uint64_t aligned_addr,
                               std::uint64_t value) {
  return value == 0 ? 0 : Mix64(aligned_addr ^ Mix64(value));
}

}  // namespace

const Memory::Page* Memory::FindPage(std::uint64_t page_index) const {
  if (page_index == cached_index_) return cached_page_;
  const auto it = pages_.find(page_index);
  if (it == pages_.end()) return nullptr;
  cached_index_ = page_index;
  cached_page_ = it->second.get();
  return cached_page_;
}

Memory::Page& Memory::EnsurePage(std::uint64_t page_index) {
  if (page_index == cached_index_) return *cached_page_;
  auto& slot = pages_[page_index];
  if (!slot) {
    slot = std::make_unique<Page>();
    slot->fill(0);
  }
  cached_index_ = page_index;
  cached_page_ = slot.get();
  return *slot;
}

std::uint64_t Memory::AlignedWord(std::uint64_t aligned_addr) const {
  const Page* page = FindPage(aligned_addr / kPageBytes);
  if (!page) return 0;
  std::uint64_t v;
  std::memcpy(&v, page->data() + aligned_addr % kPageBytes, 8);
  return v;
}

std::uint8_t Memory::ReadByte(std::uint64_t addr) const {
  const Page* page = FindPage(addr / kPageBytes);
  return page ? (*page)[addr % kPageBytes] : 0;
}

void Memory::WriteByte(std::uint64_t addr, std::uint8_t value) {
  const std::uint64_t aligned = addr & ~7ULL;
  const std::uint64_t before = AlignedWord(aligned);
  Page& page = EnsurePage(addr / kPageBytes);
  page[addr % kPageBytes] = value;
  const std::uint64_t after = AlignedWord(aligned);
  hash_ ^= WordContribution(aligned, before) ^ WordContribution(aligned, after);
}

std::uint64_t Memory::Read(std::uint64_t addr, int size) const {
  // Fast path: access contained in one page.
  if (addr % kPageBytes + static_cast<std::uint64_t>(size) <= kPageBytes) {
    const Page* page = FindPage(addr / kPageBytes);
    if (!page) return 0;
    std::uint64_t v = 0;
    std::memcpy(&v, page->data() + addr % kPageBytes,
                static_cast<std::size_t>(size));
    return v;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < size; ++i)
    v |= static_cast<std::uint64_t>(ReadByte(addr + static_cast<std::uint64_t>(i))) << (8 * i);
  return v;
}

void Memory::Write(std::uint64_t addr, std::uint64_t value, int size) {
  // A write inside one aligned word is one word update: the hash delta of
  // the byte-by-byte path telescopes to the word's before/after pair.
  if (addr % 8 + static_cast<std::uint64_t>(size) <= 8) {
    const std::uint64_t aligned = addr & ~7ULL;
    std::uint8_t* word = EnsurePage(aligned / kPageBytes).data() +
                         aligned % kPageBytes;
    std::uint64_t before, after;
    std::memcpy(&before, word, 8);
    std::memcpy(word + addr % 8, &value, static_cast<std::size_t>(size));
    std::memcpy(&after, word, 8);
    hash_ ^= WordContribution(aligned, before) ^
             WordContribution(aligned, after);
    return;
  }
  for (int i = 0; i < size; ++i)
    WriteByte(addr + static_cast<std::uint64_t>(i),
              static_cast<std::uint8_t>(value >> (8 * i)));
}

void Memory::WriteBytes(std::uint64_t addr,
                        std::span<const std::uint8_t> bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i)
    WriteByte(addr + i, bytes[i]);
}

std::vector<std::uint8_t> Memory::ReadBytes(std::uint64_t addr,
                                            std::size_t n) const {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = ReadByte(addr + i);
  return out;
}

Memory Memory::Clone() const {
  Memory copy;
  copy.hash_ = hash_;
  copy.cached_index_ = ~0ULL;
  copy.cached_page_ = nullptr;
  for (const auto& [index, page] : pages_)
    copy.pages_[index] = std::make_unique<Page>(*page);
  return copy;
}

std::vector<std::uint64_t> Memory::MappedPageIndices() const {
  std::vector<std::uint64_t> out;
  out.reserve(pages_.size());
  for (const auto& [index, page] : pages_) out.push_back(index);
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Memory::DiffWords(
    const Memory& base) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  static const Page kZeroPage{};
  for (const auto& [index, page] : pages_) {
    const Page* theirs = base.FindPage(index);
    if (theirs == nullptr) theirs = &kZeroPage;  // unmapped base reads as 0
    if (std::memcmp(page->data(), theirs->data(), kPageBytes) == 0) continue;
    for (std::uint64_t off = 0; off < kPageBytes; off += 8) {
      std::uint64_t mine, base_word;
      std::memcpy(&mine, page->data() + off, 8);
      std::memcpy(&base_word, theirs->data() + off, 8);
      if (mine != base_word) out.emplace_back(index * kPageBytes + off, mine);
    }
  }
  return out;
}

bool Memory::operator==(const Memory& other) const {
  if (hash_ != other.hash_) return false;
  // Hash equality is the fast path; verify bytes for the (test-only) cases
  // where exactness matters.
  for (const auto& [index, page] : pages_) {
    const Page* theirs = other.FindPage(index);
    if (!theirs) {
      for (std::uint8_t b : *page)
        if (b) return false;
      continue;
    }
    if (std::memcmp(page->data(), theirs->data(), kPageBytes) != 0)
      return false;
  }
  for (const auto& [index, page] : other.pages_) {
    if (!FindPage(index)) {
      for (std::uint8_t b : *page)
        if (b) return false;
    }
  }
  return true;
}

}  // namespace tfsim
