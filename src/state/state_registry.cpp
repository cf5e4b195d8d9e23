#include "state/state_registry.h"

#include <algorithm>
#include <stdexcept>

namespace tfsim {

void WordFirstAccessTracker::Watch(std::size_t word,
                                   std::uint64_t from_cycle) {
  if (sealed_) throw std::logic_error("Watch() after Seal()");
  if (word >= slot_.size()) throw std::out_of_range("watched word");
  if (slot_[word] < 0) {
    slot_[word] = static_cast<std::int32_t>(lists_.size());
    lists_.emplace_back();
  }
  auto& entries = lists_[static_cast<std::size_t>(slot_[word])].entries;
  for (const Entry& e : entries) {
    if (e.from_cycle == from_cycle) return;  // duplicate (word, cycle) pair
  }
  entries.push_back(Entry{from_cycle, {}});
  ++outstanding_;
}

void WordFirstAccessTracker::Seal() {
  for (auto& list : lists_) {
    std::sort(list.entries.begin(), list.entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.from_cycle < b.from_cycle;
              });
  }
  sealed_ = true;
}

void WordFirstAccessTracker::Resolve(std::size_t word, bool is_write) {
  WordEntries& list = lists_[static_cast<std::size_t>(slot_[word])];
  // Entries are sorted by from_cycle; an access at cycle_ answers every
  // still-pending watch whose injection cycle is at or before cycle_.
  while (list.head < list.entries.size() &&
         list.entries[list.head].from_cycle <= cycle_) {
    list.entries[list.head].result =
        FirstAccess{static_cast<std::int64_t>(cycle_), is_write};
    ++list.head;
    --outstanding_;
  }
}

WordFirstAccessTracker::FirstAccess WordFirstAccessTracker::Lookup(
    std::size_t word, std::uint64_t from_cycle) const {
  if (word >= slot_.size() || slot_[word] < 0) return {};
  const auto& entries = lists_[static_cast<std::size_t>(slot_[word])].entries;
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), from_cycle,
      [](const Entry& e, std::uint64_t c) { return e.from_cycle < c; });
  if (it == entries.end() || it->from_cycle != from_cycle) return {};
  return it->result;
}

bool WordFirstAccessTracker::Watched(std::size_t word,
                                     std::uint64_t from_cycle) const {
  if (word >= slot_.size() || slot_[word] < 0) return false;
  const auto& entries = lists_[static_cast<std::size_t>(slot_[word])].entries;
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), from_cycle,
      [](const Entry& e, std::uint64_t c) { return e.from_cycle < c; });
  return it != entries.end() && it->from_cycle == from_cycle;
}

const char* StateCatName(StateCat cat) {
  switch (cat) {
    case StateCat::kAddr: return "addr";
    case StateCat::kArchFreelist: return "archfreelist";
    case StateCat::kArchRat: return "archrat";
    case StateCat::kCtrl: return "ctrl";
    case StateCat::kData: return "data";
    case StateCat::kInsn: return "insn";
    case StateCat::kPc: return "pc";
    case StateCat::kQctrl: return "qctrl";
    case StateCat::kRegfile: return "regfile";
    case StateCat::kRegptr: return "regptr";
    case StateCat::kRobptr: return "robptr";
    case StateCat::kSpecFreelist: return "specfreelist";
    case StateCat::kSpecRat: return "specrat";
    case StateCat::kValid: return "valid";
    case StateCat::kEcc: return "ecc";
    case StateCat::kParity: return "parity";
    case StateCat::kNumCats: break;
  }
  return "?";
}

StateField StateRegistry::Allocate(std::string name, StateCat cat,
                                   Storage storage, std::size_t count,
                                   std::uint8_t width,
                                   std::source_location site) {
  if (width == 0 || width > 64)
    throw std::invalid_argument("field width must be 1..64");
  Field f;
  f.name = std::move(name);
  f.cat = cat;
  f.storage = storage;
  f.offset = words_.size();
  f.count = count;
  f.width = width;
  f.mask = width == 64 ? ~0ULL : ((1ULL << width) - 1);
  f.site_file = site.file_name();
  f.site_line = site.line();
  words_.resize(words_.size() + count, 0);
  fields_.push_back(f);

  StateField h;
  h.reg_ = this;
  h.offset_ = f.offset;
  h.count_ = count;
  h.width_ = width;
  h.cat_ = cat;
  h.storage_ = storage;
  h.mask_ = f.mask;
  return h;
}

std::uint64_t StateRegistry::RecomputeHash() const {
  std::uint64_t h = 0;
  for (std::size_t w = 0; w < words_.size(); ++w)
    h ^= Contribution(w, words_[w]);
  return h;
}

std::uint32_t StateRegistry::DivergentCats(const StateRegistry& other,
                                           std::uint32_t skip) const {
  if (other.words_.size() != words_.size())
    throw std::invalid_argument("registry layout mismatch");
  std::uint32_t mask = 0;
  for (const Field& f : fields_) {
    const std::uint32_t bit = 1u << static_cast<int>(f.cat);
    const std::uint64_t* w = words_.data() + f.offset;
    if (((skip | mask) & bit) == 0 &&
        !std::equal(w, w + f.count, other.words_.data() + f.offset))
      mask |= bit;
  }
  return mask;
}

std::uint64_t StateRegistry::InjectableBits(bool include_ram) const {
  std::uint64_t total = 0;
  for (const Field& f : fields_) {
    if (f.storage == Storage::kLatch ||
        (include_ram && f.storage == Storage::kRam))
      total += f.bits();
  }
  return total;
}

BitLocation StateRegistry::LocateBit(std::uint64_t index,
                                     bool include_ram) const {
  for (std::size_t fi = 0; fi < fields_.size(); ++fi) {
    const Field& f = fields_[fi];
    const bool eligible = f.storage == Storage::kLatch ||
                          (include_ram && f.storage == Storage::kRam);
    if (!eligible) continue;
    if (index < f.bits()) {
      BitLocation loc;
      loc.field_index = fi;
      loc.element = index / f.width;
      loc.bit = static_cast<std::uint8_t>(index % f.width);
      loc.width = f.width;
      loc.cat = f.cat;
      loc.storage = f.storage;
      loc.name = f.name;
      return loc;
    }
    index -= f.bits();
  }
  throw std::out_of_range("bit index beyond injectable state");
}

void StateRegistry::FlipBit(const BitLocation& loc) {
  const Field& f = fields_.at(loc.field_index);
  const std::size_t w = f.offset + loc.element;
  words_[w] ^= 1ULL << loc.bit;
  UpdateHash(w, words_[w]);
}

bool StateRegistry::ReadBit(const BitLocation& loc) const {
  const Field& f = fields_.at(loc.field_index);
  return (words_[f.offset + loc.element] >> loc.bit) & 1;
}

void StateRegistry::Restore(const std::vector<std::uint64_t>& snapshot) {
  if (snapshot.size() != words_.size())
    throw std::invalid_argument("snapshot size mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != snapshot[w]) UpdateHash(w, snapshot[w]);
  }
  words_ = snapshot;
}

StateRegistry::CategoryBits StateRegistry::Inventory(StateCat cat) const {
  CategoryBits b;
  for (const Field& f : fields_) {
    if (f.cat != cat) continue;
    if (f.storage == Storage::kLatch) b.latch_bits += f.bits();
    if (f.storage == Storage::kRam) b.ram_bits += f.bits();
  }
  return b;
}

StateRegistry::CategoryBits StateRegistry::TotalInjectable() const {
  CategoryBits b;
  for (const Field& f : fields_) {
    if (f.storage == Storage::kLatch) b.latch_bits += f.bits();
    if (f.storage == Storage::kRam) b.ram_bits += f.bits();
  }
  return b;
}

std::vector<StateRegistry::FieldInfo> StateRegistry::Fields() const {
  std::vector<FieldInfo> out;
  out.reserve(fields_.size());
  for (std::size_t i = 0; i < fields_.size(); ++i)
    out.push_back(FieldInfoAt(i));
  return out;
}

StateRegistry::FieldInfo StateRegistry::FieldInfoAt(std::size_t i) const {
  const Field& f = fields_.at(i);
  return {f.name, f.cat,       f.storage,   f.count,
          f.width, f.site_file, f.site_line};
}

}  // namespace tfsim
