// StateRegistry: the explicit, enumerable microarchitectural state of the
// pipeline model — the fault-injection surface.
//
// The paper's model is "latch-accurate": every state element of a real
// implementation exists in the model and vice versa, which is what makes a
// single-bit-flip fault model meaningful. This registry reproduces that
// property at the cycle level:
//
//   * Every pipeline structure allocates its storage here as a *field*:
//     `count` elements of `width` bits, tagged with the paper's Table 1
//     category (addr, archrat, ctrl, data, insn, pc, qctrl, regfile, regptr,
//     robptr, specfreelist, specrat, valid, + ecc/parity for Section 4) and
//     a storage class (latch vs RAM array vs non-injectable background).
//   * Pipeline logic reads values back from these fields each cycle — there
//     is no hidden shadow copy — so a flipped bit genuinely alters behaviour.
//   * A fault injection picks a bit uniformly over the eligible fields
//     (latches only, or latches+RAMs, per experiment) and flips it.
//   * The registry maintains an order-independent incremental content hash,
//     updated O(1) per write. Combined with Memory::ContentHash() this gives
//     the per-cycle whole-machine state-equality test behind the paper's
//     "μArch Match" outcome at negligible cost. The hash is the XOR over
//     words of Contribution(word, value); a contribution cache parallel to
//     the word store holds each word's current term, so a value-changing
//     write mixes only the new value (two Mix64 calls) and XORs out the
//     cached old term. The cache is derived data — a pure function of the
//     words — written only by the hash upkeep and never snapshotted.
//   * Snapshot/Restore copies the whole word store, the basis of the
//     checkpoint-per-start-point methodology.
#pragma once

#include <cstdint>
#include <source_location>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tfsim {

// State categories, exactly the paper's Table 1 plus the two categories the
// Section 4 protection mechanisms introduce (Figure 9).
enum class StateCat : std::uint8_t {
  kAddr,
  kArchFreelist,
  kArchRat,
  kCtrl,
  kData,
  kInsn,
  kPc,
  kQctrl,
  kRegfile,
  kRegptr,
  kRobptr,
  kSpecFreelist,
  kSpecRat,
  kValid,
  kEcc,
  kParity,
  kNumCats,
};
inline constexpr int kNumStateCats = static_cast<int>(StateCat::kNumCats);

const char* StateCatName(StateCat cat);

// Storage implementation class. Latches and RAM arrays are the two
// injectable kinds the paper distinguishes (different fault rates, different
// protection options); background marks model state excluded from injection
// (cache arrays, predictor tables) but still part of machine state equality.
enum class Storage : std::uint8_t { kLatch, kRam, kBackground };

class StateRegistry;

// Records the FIRST access (read or write, in call order) to selected words
// at-or-after a per-watch start cycle. Installed on a StateRegistry only
// while the golden run records (see RecordGolden); normal simulation pays a
// single null-pointer check per field access.
//
// Semantics deliberately sit at the *call* level, before StateField::Set's
// no-change short-circuit: a write that happens to store the value already
// present in the golden run would still overwrite a flipped copy of that
// word in a faulty run, so it counts as a write here. That is exactly the
// property the trial fast path needs: if the first access to an injected
// word is a write, the faulty machine provably re-converges with the golden
// timeline at that cycle; if the word is never accessed inside the
// observation window, the fault provably stays latent (Gray Area). Only a
// first access that is a *read* forces a trial to actually simulate.
class WordFirstAccessTracker {
 public:
  struct FirstAccess {
    std::int64_t cycle = -1;  // -1: no access at-or-after from_cycle
    bool is_write = false;
  };

  explicit WordFirstAccessTracker(std::size_t word_count)
      : slot_(word_count, -1) {}

  // Registers interest in the first access to `word` at-or-after
  // `from_cycle`. Duplicate (word, from_cycle) pairs collapse. Must be
  // called before Seal().
  void Watch(std::size_t word, std::uint64_t from_cycle);
  // Sorts the pending lists; call once, after all Watch() calls.
  void Seal();

  // Recording-side interface.
  void SetCycle(std::uint64_t cycle) { cycle_ = cycle; }
  bool Done() const { return outstanding_ == 0; }
  void OnAccess(std::size_t word, bool is_write) {
    if (slot_[word] >= 0) Resolve(word, is_write);
  }

  // Query after recording. Returns cycle=-1 if (word, from_cycle) was never
  // watched or never accessed.
  FirstAccess Lookup(std::size_t word, std::uint64_t from_cycle) const;
  // Whether the exact (word, from_cycle) pair was registered — callers use
  // this to tell "never accessed" (a provable verdict) apart from "never
  // watched" (no data).
  bool Watched(std::size_t word, std::uint64_t from_cycle) const;

 private:
  struct Entry {
    std::uint64_t from_cycle = 0;
    FirstAccess result;
  };
  struct WordEntries {
    std::vector<Entry> entries;  // sorted ascending by from_cycle after Seal
    std::size_t head = 0;        // first unresolved entry
  };

  void Resolve(std::size_t word, bool is_write);

  std::vector<std::int32_t> slot_;  // word -> index into lists_, or -1
  std::vector<WordEntries> lists_;
  std::uint64_t cycle_ = 0;
  std::size_t outstanding_ = 0;
  bool sealed_ = false;
};

// Lightweight handle to an allocated field. Reads are direct; writes go
// through Set() so the registry's incremental hash stays consistent.
class StateField {
 public:
  StateField() = default;

  // Defined inline below StateRegistry: reads and the no-change write
  // fast path stay in the caller (the per-cycle invariant checker makes
  // hundreds of reads per cycle; only real writes pay the hash update).
  std::uint64_t Get(std::size_t i) const;
  void Set(std::size_t i, std::uint64_t value);

  // Convenience for 1-bit fields.
  bool GetBit(std::size_t i) const { return Get(i) != 0; }

  std::size_t count() const { return count_; }
  std::uint8_t width() const { return width_; }
  std::uint64_t mask() const { return mask_; }
  // Table-1 classification of the backing field (introspection for audits;
  // a default-constructed, unallocated handle reads as ctrl/latch).
  StateCat cat() const { return cat_; }
  Storage storage() const { return storage_; }
  // True once the handle is backed by a registry allocation.
  bool allocated() const { return reg_ != nullptr; }
  // Word index of element 0 in StateRegistry::WordsData() — lets bulk readers
  // (the per-cycle invariant checker) index one flat array instead of paying
  // Get()'s registry indirection on every probe.
  std::size_t offset() const { return offset_; }

 private:
  friend class StateRegistry;
  friend class FieldScan;
  StateRegistry* reg_ = nullptr;
  std::size_t offset_ = 0;  // first word index in the registry store
  std::size_t count_ = 0;
  std::uint8_t width_ = 0;
  StateCat cat_ = StateCat::kCtrl;
  Storage storage_ = Storage::kLatch;
  std::uint64_t mask_ = 0;
};

// Identifies one bit of registered state (result of a uniform draw over the
// eligible bit space).
struct BitLocation {
  std::size_t field_index = 0;
  std::size_t element = 0;
  std::uint8_t bit = 0;
  std::uint8_t width = 0;  // element width (for adjacent multi-bit models)
  StateCat cat = StateCat::kCtrl;
  Storage storage = Storage::kLatch;
  std::string name;  // field name, for reporting
};

class StateRegistry {
 public:
  StateRegistry() = default;
  StateRegistry(const StateRegistry&) = delete;
  StateRegistry& operator=(const StateRegistry&) = delete;

  // Allocates `count` elements of `width` bits. Fields allocated in the same
  // order across two registry instances occupy identical word offsets — the
  // property that makes golden/faulty hash comparison meaningful. The call
  // site is recorded on the field (FieldInfo::site_file/site_line) so audits
  // like `tfi statelint` can map every registered bit back to the source
  // line that declared it.
  StateField Allocate(std::string name, StateCat cat, Storage storage,
                      std::size_t count, std::uint8_t width,
                      std::source_location site =
                          std::source_location::current());

  // Incremental content hash over every registered word (background
  // included). O(1) to read.
  std::uint64_t Hash() const { return hash_; }

  // Full recomputation; used by tests to validate the incremental hash.
  std::uint64_t RecomputeHash() const;

  // Bitmask (1 << StateCat) of the categories with a word that differs from
  // `other`, a registry of the same layout; categories set in `skip` are not
  // compared. Propagation tracing diffs a trial against a golden replica.
  std::uint32_t DivergentCats(const StateRegistry& other,
                              std::uint32_t skip = 0) const;

  // --- fault injection ----------------------------------------------------

  // Total injectable bits. include_ram=false restricts to latches, matching
  // the paper's latch-only campaigns.
  std::uint64_t InjectableBits(bool include_ram) const;

  // Maps a uniform index in [0, InjectableBits(include_ram)) to a bit.
  BitLocation LocateBit(std::uint64_t index, bool include_ram) const;

  // Flips the bit (hash kept consistent).
  void FlipBit(const BitLocation& loc);
  // Reads the bit's current value (diagnostics/tests).
  bool ReadBit(const BitLocation& loc) const;

  // --- snapshotting ---------------------------------------------------------

  std::vector<std::uint64_t> Snapshot() const { return words_; }
  void Restore(const std::vector<std::uint64_t>& snapshot);

  // --- inventory (Table 1) --------------------------------------------------

  struct CategoryBits {
    std::uint64_t latch_bits = 0;
    std::uint64_t ram_bits = 0;
  };
  CategoryBits Inventory(StateCat cat) const;
  CategoryBits TotalInjectable() const;

  struct FieldInfo {
    std::string name;
    StateCat cat = StateCat::kCtrl;
    Storage storage = Storage::kLatch;
    std::size_t count = 0;
    std::uint8_t width = 0;
    // Allocation site (the Allocate() call that created the field).
    const char* site_file = "";
    std::uint32_t site_line = 0;
    std::uint64_t bits() const { return count * width; }
  };
  std::vector<FieldInfo> Fields() const;
  FieldInfo FieldInfoAt(std::size_t i) const;

  std::size_t WordCount() const { return words_.size(); }

  // Read-only view of the whole word store (stable once allocation is done).
  // Pair with StateField::offset(): w[f.offset() + i] == f.Get(i), already
  // masked because every write goes through Set().
  const std::uint64_t* WordsData() const { return words_.data(); }

  // Flat word index backing a located bit (for snapshot deltas and the
  // fast-path access tracker).
  std::size_t WordIndexOf(const BitLocation& loc) const {
    return fields_[loc.field_index].offset + loc.element;
  }

  // Overwrites one word with a value captured from another registry of the
  // same layout, keeping the incremental hashes consistent. Values must
  // already be masked (they are, if they came from WordsData()/Snapshot()).
  void OverwriteWord(std::size_t word, std::uint64_t value) {
    if (words_[word] == value) return;
    words_[word] = value;
    UpdateHash(word, value);
  }

  // --- access tracking ------------------------------------------------------

  // Installs (or removes, with nullptr) a first-access tracker. Every
  // StateField::Get/Set call reports to it, including writes short-circuited
  // by the no-change fast path. Null by default; only golden-run recording
  // installs one, and only around Core::Cycle() so instrumentation reads
  // (hashes, occupancy samples) don't pollute the access stream.
  void SetAccessTracker(WordFirstAccessTracker* tracker) { tracker_ = tracker; }
  WordFirstAccessTracker* access_tracker() const { return tracker_; }

 private:
  friend class StateField;

  struct Field {
    std::string name;
    StateCat cat;
    Storage storage;
    std::size_t offset;
    std::size_t count;
    std::uint8_t width;
    std::uint64_t mask;
    const char* site_file;  // source_location storage is static-duration
    std::uint32_t site_line;
    std::uint64_t bits() const { return count * width; }
  };

  // A word's term in the content hash; zero words contribute nothing, so a
  // freshly allocated registry hashes to 0.
  static std::uint64_t Contribution(std::size_t word_index,
                                    std::uint64_t value) {
    return value == 0
               ? 0
               : Mix64((static_cast<std::uint64_t>(word_index) + 1) *
                           0x9e3779b97f4a7c15ULL ^
                       Mix64(value));
  }
  // Swaps `word_index`'s cached term for the one of `after` (the word's new
  // value) in the content hash.
  void UpdateHash(std::size_t word_index, std::uint64_t after) {
    if (word_index >= contrib_.size()) [[unlikely]]
      contrib_.resize(words_.size(), 0);
    const std::uint64_t c = Contribution(word_index, after);
    const std::uint64_t delta = contrib_[word_index] ^ c;
    contrib_[word_index] = c;
    hash_ ^= delta;
  }

  std::vector<std::uint64_t> words_;
  std::vector<Field> fields_;
  // Contribution(w, words_[w]), parallel to words_ but sized on the first
  // write after an Allocate: words past its end were never written, so they
  // are zero and contribute zero. A core allocates every field before its
  // first write, so its cache is one allocation instead of a second copy of
  // words_' growth steps, whose freed buffers the allocator would retain.
  std::vector<std::uint64_t> contrib_;
  std::uint64_t hash_ = 0;
  WordFirstAccessTracker* tracker_ = nullptr;
};

// Read-only view of one field for whole-field scans (the scheduler's
// broadcast and select loops). It resolves the field's first word in the
// registry's flat store and the registry's access tracker once, so each
// element read is one load plus a register test, where Get() re-derives the
// registry, its store and its tracker on every call. v[i] reports to the
// tracker exactly as Get(i) does. Construct it per scan: it is valid until
// the registry allocates again or the tracker is swapped.
class FieldScan {
 public:
  explicit FieldScan(const StateField& f);
  std::uint64_t operator[](std::size_t i) const {
    if (tracker_ != nullptr) tracker_->OnAccess(offset_ + i, false);
    return words_[i];
  }

 private:
  const std::uint64_t* words_;
  std::size_t offset_;
  WordFirstAccessTracker* tracker_;
};

inline FieldScan::FieldScan(const StateField& f)
    : words_(f.reg_->WordsData() + f.offset_),
      offset_(f.offset_),
      tracker_(f.reg_->access_tracker()) {}

inline std::uint64_t StateField::Get(std::size_t i) const {
  const std::size_t w = offset_ + i;
  if (reg_->tracker_ != nullptr) reg_->tracker_->OnAccess(w, false);
  return reg_->words_[w];
}

inline void StateField::Set(std::size_t i, std::uint64_t value) {
  const std::size_t w = offset_ + i;
  // Report before the no-change short-circuit: a value-preserving write in
  // the golden run still counts as an overwrite for fault convergence.
  if (reg_->tracker_ != nullptr) reg_->tracker_->OnAccess(w, true);
  const std::uint64_t after = value & mask_;
  if (reg_->words_[w] == after) return;
  reg_->words_[w] = after;
  reg_->UpdateHash(w, after);
}

}  // namespace tfsim
