#include "uarch/core.h"

#include <algorithm>
#include <optional>

#include "arch/syscall.h"
#include "check/invariants.h"
#include "util/rng.h"

namespace tfsim {
namespace {

constexpr std::uint64_t kNoRas = 0xFF;  // sentinel: skip RAS-pointer restore

// Applies load size/sign semantics to a raw memory value.
std::uint64_t FinishLoad(std::uint64_t raw, int size, bool sext) {
  const std::uint64_t mask = size >= 8 ? ~0ULL : ((1ULL << (8 * size)) - 1);
  std::uint64_t v = raw & mask;
  if (sext && size == 4)
    v = static_cast<std::uint64_t>(
        static_cast<std::int32_t>(static_cast<std::uint32_t>(v)));
  return v;
}

bool RangesOverlap(std::uint64_t a, int asize, std::uint64_t b, int bsize) {
  return a < b + static_cast<std::uint64_t>(bsize) &&
         b < a + static_cast<std::uint64_t>(asize);
}

}  // namespace

namespace {
// config.cpp repeats this constant to stay free of pipeline headers.
static_assert(kNumArchRegs == 32, "CoreConfig::Validate assumes 32 arch regs");

// Geometry is audited before any member component allocates state: an
// invalid shape must throw, never construct a silently-truncating pipeline.
const CoreConfig& Validated(const CoreConfig& cfg) {
  cfg.ValidateOrThrow();
  return cfg;
}
}  // namespace

Core::Core(const CoreConfig& cfg, const Program& program)
    : cfg_(Validated(cfg)),
      bpred_(registry_, cfg),
      icache_(registry_, cfg),
      dcache_(registry_, cfg),
      storesets_(registry_, cfg),
      regfile_(registry_, cfg),
      rename_(registry_, cfg),
      rob_(registry_, cfg),
      sched_(registry_, cfg),
      lsq_(registry_, cfg),
      fetch_(registry_, cfg),
      decode_(registry_, cfg),
      issue_lat_(registry_, cfg, "iss", kNumPorts, false),
      rr_lat_(registry_, cfg, "rr", kNumPorts, true),
      wb_(registry_, cfg, 10),
      cpipe_(registry_, cfg),
      wakeups_(registry_, cfg) {
  arch_next_pc_ = registry_.Allocate("retire.arch_next_pc", StateCat::kPc,
                                     Storage::kLatch, 1, kPcBits);
  if (cfg_.protect.timeout_counter)
    timeout_count_ = registry_.Allocate(
        "retire.timeout", StateCat::kCtrl, Storage::kLatch, 1,
        CountBits(static_cast<std::uint64_t>(cfg.timeout_cycles)));
  resolved_target_ =
      registry_.Allocate("rob.resolved_target", StateCat::kPc, Storage::kRam,
                         static_cast<std::size_t>(cfg.rob_entries), kPcBits);

  for (const auto& chunk : program.chunks)
    mem_.WriteBytes(chunk.addr, chunk.bytes);
  regfile_.Reset();
  rename_.Reset();
  fetch_.SetFetchPc(program.entry);
  arch_next_pc_.Set(0, PcStore(program.entry));
  rob_seq_.resize(static_cast<std::size_t>(cfg.rob_entries), 0);
  select_ready_.resize(sched_.entries());
  if (cfg_.check_invariants)
    checker_ = std::make_unique<check::InvariantChecker>();
}

Core::~Core() = default;

std::uint64_t Core::StateHash() const {
  std::uint64_t h = registry_.Hash() ^ mem_.ContentHash() ^ out_hash_;
  if (exited_) h ^= Mix64(exit_code_ + 0xE817);
  return h;
}

std::uint64_t Core::ArchViewHash() {
  // The architectural register file as software would observe it: pointers
  // and values pass through ECC correction when those mechanisms are on
  // (a correctable flip is not a visible error), but nothing is scrubbed.
  std::uint64_t h = 0;
  for (std::uint64_t r = 0; r < kNumArchRegs; ++r) {
    const std::uint64_t preg = rename_.ReadArchCorrectedView(r);
    const Word65 v = regfile_.ReadCorrectedView(preg);
    h ^= Mix64((r << 58) ^ Mix64(v.lo + (v.hi ? 2 : 1)));
  }
  return h;
}

std::uint64_t Core::InFlight() const {
  std::uint64_t staged = 0;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(cfg_.fetch_width);
       ++i)
    if (fetch_.fb_valid.GetBit(i)) ++staged;
  return rob_.Count() + fetch_.FqCount() + staged +
         decode_.stage1.Occupancy() + decode_.stage2.Occupancy();
}

std::uint64_t Core::OldestInflightSeq() const {
  if (rob_.Count() > 0) return rob_seq_[rob_.Head()];
  for (std::uint64_t i = 0; i < decode_.stage2.width; ++i)
    if (decode_.stage2.valid.GetBit(i)) return decode_.stage2.seq[i];
  for (std::uint64_t i = 0; i < decode_.stage1.width; ++i)
    if (decode_.stage1.valid.GetBit(i)) return decode_.stage1.seq[i];
  if (fetch_.FqCount() > 0) return fetch_.fq_seq[fetch_.FqHeadIndex()];
  return fetch_.seq_counter;
}

Core::Snapshot Core::Save() const {
  Snapshot s;
  s.words = registry_.Snapshot();
  s.mem = mem_.Clone();
  s.output = output_;
  s.out_hash = out_hash_;
  s.exited = exited_;
  s.exit_code = exit_code_;
  s.halted_exc = halted_exc_;
  s.retired_total = retired_total_;
  s.seq_counter = fetch_.seq_counter;
  s.fq_seq = fetch_.fq_seq;
  s.fb_seq = fetch_.fb_seq;
  s.d1_seq = decode_.stage1.seq;
  s.d2_seq = decode_.stage2.seq;
  s.rob_seq = rob_seq_;
  return s;
}

void Core::Load(const Snapshot& s) {
  registry_.Restore(s.words);
  mem_ = s.mem.Clone();
  output_ = s.output;
  out_hash_ = s.out_hash;
  exited_ = s.exited;
  exit_code_ = s.exit_code;
  halted_exc_ = s.halted_exc;
  retired_total_ = s.retired_total;
  fetch_.seq_counter = s.seq_counter;
  fetch_.fq_seq = s.fq_seq;
  fetch_.fb_seq = s.fb_seq;
  decode_.stage1.seq = s.d1_seq;
  decode_.stage2.seq = s.d2_seq;
  rob_seq_ = s.rob_seq;
  itlb_miss_ = false;
  stats_ = CoreStats{};
  obs_flushed_ = CoreStats{};
  if (checker_) checker_->Clear();
}

Core::SnapshotDelta Core::SaveDelta(const Snapshot& base) const {
  SnapshotDelta d;
  const std::uint64_t* words = registry_.WordsData();
  for (std::size_t w = 0; w < base.words.size(); ++w) {
    if (words[w] != base.words[w])
      d.words.emplace_back(static_cast<std::uint32_t>(w), words[w]);
  }
  d.mem = mem_.DiffWords(base.mem);
  d.output = output_;
  d.out_hash = out_hash_;
  d.exited = exited_;
  d.exit_code = exit_code_;
  d.halted_exc = halted_exc_;
  d.retired_total = retired_total_;
  d.seq_counter = fetch_.seq_counter;
  d.fq_seq = fetch_.fq_seq;
  d.fb_seq = fetch_.fb_seq;
  d.d1_seq = decode_.stage1.seq;
  d.d2_seq = decode_.stage2.seq;
  d.rob_seq = rob_seq_;
  d.inflight = InFlight();
  return d;
}

void Core::LoadDelta(const Snapshot& base, const SnapshotDelta& d) {
  Load(base);
  for (const auto& [w, value] : d.words) registry_.OverwriteWord(w, value);
  for (const auto& [addr, value] : d.mem) mem_.Write(addr, value, 8);
  output_ = d.output;
  out_hash_ = d.out_hash;
  exited_ = d.exited;
  exit_code_ = d.exit_code;
  halted_exc_ = d.halted_exc;
  retired_total_ = d.retired_total;
  fetch_.seq_counter = d.seq_counter;
  fetch_.fq_seq = d.fq_seq;
  fetch_.fb_seq = d.fb_seq;
  decode_.stage1.seq = d.d1_seq;
  decode_.stage2.seq = d.d2_seq;
  rob_seq_ = d.rob_seq;
}

void Core::Cycle() {
  CycleInner();
  if (checker_ || obs_) {
    // Instrumentation reads (invariant probes, occupancy samples) must not
    // feed the fast path's first-access tracker — it models what the
    // *pipeline* touches.
    WordFirstAccessTracker* tracker = registry_.access_tracker();
    registry_.SetAccessTracker(nullptr);
    if (checker_ && checker_->Check(*this) != 0 && obs_) ObsCountViolations();
    if (obs_) ObsSample();
    registry_.SetAccessTracker(tracker);
  }
}

void Core::CycleInner() {
  retired_this_cycle_.clear();
  retired_seqs_this_cycle_.clear();
  ++stats_.cycles;
  if (exited_ || halted_exc_ != Exception::kNone || itlb_miss_) return;

  icache_.Tick(mem_);
  dcache_.Tick(mem_);
  regfile_.TickEcc();

  RetireStage();
  if (exited_ || halted_exc_ != Exception::kNone) return;
  StoreBufferDrain();
  WritebackStage();
  MemStage();
  ExecuteStage();
  RegReadStage();
  SelectStage();
  DispatchStage();
  decode_.Advance();
  FrontEnd();
}

// ---------------------------------------------------------------------------
// Retirement
// ---------------------------------------------------------------------------

void Core::RetireStage() {
  const std::uint64_t retired_before = retired_total_;
  bool stop = false;
  for (int n = 0; n < cfg_.retire_width && !stop; ++n) RetireOne(stop);

  if (cfg_.protect.timeout_counter && halted_exc_ == Exception::kNone &&
      !exited_) {
    if (retired_total_ != retired_before) {
      timeout_count_.Set(0, 0);
    } else {
      const std::uint64_t c = timeout_count_.Get(0) + 1;
      if (c >= static_cast<std::uint64_t>(cfg_.timeout_cycles)) {
        // Forced flush to clear a potential deadlock (Section 4.2). Restart
        // from the next-to-retire instruction (or the committed next PC when
        // the ROB is empty).
        ++stats_.timeout_flushes;
        const std::uint64_t restart =
            rob_.Count() > 0 ? PcLoad(rob_.pc.Get(rob_.Head()))
                             : PcLoad(arch_next_pc_.Get(0));
        FullFlush(restart);
        timeout_count_.Set(0, 0);
      } else {
        timeout_count_.Set(0, c);
      }
    }
  }
}

void Core::RetireOne(bool& stop) {
  if (rob_.Empty()) {
    stop = true;
    return;
  }
  const std::uint64_t tag = rob_.Head();
  if (!rob_.done.GetBit(tag)) {
    stop = true;
    return;
  }

  RetireEvent e;
  e.pc = PcLoad(rob_.pc.Get(tag));
  e.insn = static_cast<std::uint32_t>(rob_.insn.Get(tag));

  // Exception? Raise it (paper: Terminated/except, or itlb/dtlb SDC).
  const Exception exc = static_cast<Exception>(rob_.exc.Get(tag) % 7);
  if (exc != Exception::kNone) {
    e.exc = exc;
    halted_exc_ = exc;
    retired_this_cycle_.push_back(e);
    stop = true;
    return;
  }

  // Instruction-word parity check, performed before the instruction is
  // allowed to commit (Section 4.2). A mismatch triggers a recovery flush
  // and a clean re-fetch of the same instruction.
  if (rob_.parity_on &&
      InsnParity(static_cast<std::uint32_t>(rob_.insn.Get(tag))) !=
          rob_.parity.Get(tag)) {
    ++stats_.parity_flushes;
    FullFlush(e.pc);
    stop = true;
    return;
  }

  if (rob_.is_syscall.GetBit(tag)) {
    if (!lsq_.SbEmpty()) {  // drain committed stores first
      stop = true;
      return;
    }
    const std::uint64_t number =
        regfile_.Read(rename_.ReadArch(0).val).lo;
    const std::uint64_t a0 = regfile_.Read(rename_.ReadArch(16).val).lo;
    const std::uint64_t a1 = regfile_.Read(rename_.ReadArch(17).val).lo;
    const std::size_t out_before = output_.size();
    const std::uint64_t r0 =
        DoSyscallRaw(number, a0, a1, mem_, output_, exited_, exit_code_);
    for (std::size_t i = out_before; i < output_.size(); ++i)
      out_hash_ = Mix64(out_hash_ ^ output_[i] ^ (i << 32));
    regfile_.Write(rename_.ReadArch(0).val, {r0, false});
    e.is_syscall = true;
    e.dst = 0;
    e.value = r0;
    retired_this_cycle_.push_back(e);
    retired_seqs_this_cycle_.push_back(rob_seq_[tag]);
    ++retired_total_;
    ++stats_.retired;
    arch_next_pc_.Set(0, PcStore(e.pc + 4));
    rob_.PopHead();
    FullFlush(e.pc + 4);  // syscalls serialize the pipeline
    stop = true;
    return;
  }

  if (rob_.is_store.GetBit(tag)) {
    if (lsq_.SbFull()) {  // cannot commit the store yet
      stop = true;
      return;
    }
    const std::uint64_t si = rob_.lsq_idx.Get(tag) % lsq_.sq_entries();
    e.is_store = true;
    e.store_addr = lsq_.sq_addr.Get(si);
    e.store_value = lsq_.sq_data.Get(si);
    e.store_size =
        static_cast<std::uint8_t>(DecodeSizeCode(lsq_.sq_size.Get(si)));
    // Drop forward shadows naming this SQ slot before it is recycled: stores
    // retire in order, so once the forward source commits, any older-than-load
    // store still resolving its address is younger than the source and must
    // always squash — a stale shadow pointing at the slot's next (younger)
    // occupant would wrongly suppress that squash and let the load keep
    // superseded data. (Found by the differential fuzzer.)
    for (std::uint64_t li = 0; li < lsq_.lq_entries(); ++li)
      if (lsq_.lq_valid.GetBit(li) && lsq_.lq_fwd_valid.GetBit(li) &&
          lsq_.lq_fwd_sq.Get(li) % lsq_.sq_entries() == si)
        lsq_.lq_fwd_valid.Set(li, 0);
    lsq_.SbPush(e.store_addr, e.store_value, lsq_.sq_size.Get(si));
    lsq_.PopSqHead();
  }

  if (rob_.is_load.GetBit(tag)) lsq_.PopLqHead();

  if (rob_.has_dst.GetBit(tag)) {
    const RPtr newp =
        ReadPtrField(rob_.newp, rob_.newp_ecc, tag, rob_.ecc_on);
    const RPtr oldp =
        ReadPtrField(rob_.oldp, rob_.oldp_ecc, tag, rob_.ecc_on);
    const std::uint64_t areg = rob_.areg.Get(tag);
    (void)rename_.PopArchFree();  // in fault-free runs this equals newp
    rename_.SetArch(areg, newp);
    rename_.PushArchFree(oldp);
    rename_.PushFree(oldp);
    e.dst = static_cast<std::uint8_t>(areg);
    e.value = regfile_.Read(newp.val).lo;
  }

  arch_next_pc_.Set(
      0, rob_.is_branch.GetBit(tag) ? resolved_target_.Get(tag)
                                    : PcStore(e.pc + 4));

  retired_this_cycle_.push_back(e);
  retired_seqs_this_cycle_.push_back(rob_seq_[tag]);
  ++retired_total_;
  ++stats_.retired;
  rob_.PopHead();
}

void Core::StoreBufferDrain() {
  std::uint64_t addr, data;
  int size;
  if (lsq_.SbPop(addr, data, size))
    dcache_.WriteThrough(addr, data, size, mem_);
}

// ---------------------------------------------------------------------------
// Writeback
// ---------------------------------------------------------------------------

void Core::WritebackStage() {
  for (std::size_t i = 0; i < wb_.slots; ++i) {
    if (!wb_.valid.GetBit(i)) continue;
    if (wb_.has_dst.GetBit(i)) {
      const RPtr p = CheckPtr(
          {wb_.dstp.Get(i), wb_.ecc_on ? wb_.dst_ecc.Get(i) : 0}, wb_.ecc_on);
      regfile_.Write(p.val, {wb_.value_lo.Get(i), wb_.value_hi.GetBit(i)});
      sched_.Wakeup(p.val);  // safety-net broadcast (see DispatchStage races)
    }
    rob_.done.Set(wb_.robtag.Get(i) % rob_.entries(), 1);
    if (wb_.free_sched.GetBit(i)) {
      sched_.Free(wb_.sched_idx.Get(i) % sched_.entries());
    }
    wb_.valid.Set(i, 0);
  }
}

bool Core::ProduceResultInternal(Word65 value, std::uint64_t dstp,
                                 std::uint64_t dst_ecc, bool has_dst,
                                 std::uint64_t robtag, std::uint64_t sched_idx,
                                 bool free_sched) {
  const int slot = wb_.FreeSlot();
  if (slot < 0) return false;
  const std::size_t s = static_cast<std::size_t>(slot);
  wb_.valid.Set(s, 1);
  wb_.alloc_ptr.Set(0, (s + 1) % wb_.slots);
  wb_.value_lo.Set(s, value.lo);
  wb_.value_hi.Set(s, value.hi ? 1 : 0);
  wb_.dstp.Set(s, dstp);
  if (wb_.ecc_on) wb_.dst_ecc.Set(s, dst_ecc);
  wb_.has_dst.Set(s, has_dst ? 1 : 0);
  wb_.robtag.Set(s, robtag);
  wb_.sched_idx.Set(s, sched_idx);
  wb_.free_sched.Set(s, free_sched ? 1 : 0);
  return true;
}

Word65 Core::ReadOperand(std::uint64_t preg) {
  if (regfile_.Ready(preg)) return regfile_.Read(preg);
  // Bypass: the producer's result may be sitting in the writeback bank.
  for (std::size_t i = 0; i < wb_.slots; ++i) {
    if (wb_.valid.GetBit(i) && wb_.has_dst.GetBit(i) &&
        wb_.dstp.Get(i) == preg)
      return {wb_.value_lo.Get(i), wb_.value_hi.GetBit(i)};
  }
  // Mis-timed read (possible only under corruption): defined fallback.
  return regfile_.Read(preg);
}

// ---------------------------------------------------------------------------
// Memory stage
// ---------------------------------------------------------------------------

void Core::KillLoadDependents(std::uint64_t lq_index) {
  const std::uint64_t preg = lsq_.lq_dstp.Get(lq_index);
  ++stats_.replays;
  wakeups_.Kill(preg);
  sched_.KillWakeup(preg, lsq_.lq_sched.Get(lq_index));
  auto poison_bank = [&](UopLatchBank& bank) {
    for (std::size_t s = 0; s < bank.slots; ++s) {
      if (!bank.valid.GetBit(s)) continue;
      const DecodedInst bd = UnpackCtrl(bank.ctrl.Get(s));
      const bool dep = (OpHasSrc1(bd.op) && bank.src1p.Get(s) == preg) ||
                       (OpHasSrc2(bd.op) && bank.src2p.Get(s) == preg);
      if (!dep) continue;
      bank.valid.Set(s, 0);
      // Revert the consumer's scheduler entry so it replays.
      const std::uint64_t si = bank.sched_idx.Get(s) % sched_.entries();
      if (sched_.valid.GetBit(si) &&
          sched_.robtag.Get(si) == bank.robtag.Get(s))
        sched_.state.Set(si, Scheduler::kWaiting);
      // The consumer never produces: cancel its own scheduled wakeup.
      if (bank.has_dst.GetBit(s)) wakeups_.Kill(bank.dstp.Get(s));
    }
  };
  poison_bank(issue_lat_);
  poison_bank(rr_lat_);
}

bool Core::TryLoadAccess(std::uint64_t li) {
  const std::uint64_t addr = lsq_.lq_addr.Get(li);
  const int size = DecodeSizeCode(lsq_.lq_size.Get(li));
  const std::uint64_t load_tag = lsq_.lq_robtag.Get(li);
  // If the speculative (hit-timed) wakeup from issue can no longer be
  // honoured, consumers must replay: flag a kill for next cycle.
  auto spec_failed = [&] {
    if (lsq_.lq_spec.GetBit(li)) {
      lsq_.lq_spec.Set(li, 0);
      lsq_.lq_misskill.Set(li, 1);
    }
  };

  if (!tlb_.LookupData(addr)) {
    rob_.exc.Set(load_tag % rob_.entries(),
                 static_cast<std::uint64_t>(Exception::kDTlbMiss));
    rob_.done.Set(load_tag % rob_.entries(), 1);
    lsq_.lq_state.Set(li, kLqDone);
    lsq_.lq_done.Set(li, 1);
    sched_.Free(lsq_.lq_sched.Get(li) % sched_.entries());
    spec_failed();
    return true;
  }

  // Scan older stores in the SQ, youngest first.
  struct Candidate {
    std::uint64_t index;
    std::uint64_t age;
  };
  std::uint64_t best_age = 0;
  std::uint64_t best_sq = ~0ULL;
  for (std::uint64_t si = 0; si < lsq_.sq_entries(); ++si) {
    if (!lsq_.sq_valid.GetBit(si) || !lsq_.sq_addr_valid.GetBit(si)) continue;
    const std::uint64_t stag = lsq_.sq_robtag.Get(si);
    if (!rob_.Younger(load_tag, stag)) continue;  // store must be older
    const int ssize = DecodeSizeCode(lsq_.sq_size.Get(si));
    if (!RangesOverlap(addr, size, lsq_.sq_addr.Get(si), ssize)) continue;
    const std::uint64_t age = rob_.AgeOf(stag);
    if (best_sq == ~0ULL || age > best_age) {
      best_age = age;
      best_sq = si;
    }
  }
  if (best_sq != ~0ULL) {
    const std::uint64_t si = best_sq;
    const int ssize = DecodeSizeCode(lsq_.sq_size.Get(si));
    const bool exact =
        lsq_.sq_addr.Get(si) == addr && ssize >= size;
    if (!exact || !lsq_.sq_data_valid.GetBit(si)) {
      spec_failed();
      return false;  // stall until the store resolves/drains
    }
    lsq_.lq_spec.Set(li, 0);
    lsq_.lq_value.Set(li, lsq_.sq_data.Get(si));
    lsq_.lq_fwd_valid.Set(li, 1);
    lsq_.lq_fwd_sq.Set(li, si);
    lsq_.lq_state.Set(li, kLqAccessing);
    lsq_.lq_timer.Set(li, 1);
    if (lsq_.lq_has_dst.GetBit(li)) sched_.Wakeup(lsq_.lq_dstp.Get(li));
    return true;
  }

  // Scan the post-retirement store buffer, youngest first.
  const std::uint64_t sbn = static_cast<std::uint64_t>(cfg_.store_buffer);
  for (std::uint64_t k = 0; k < sbn; ++k) {
    const std::uint64_t si =
        (lsq_.sb_tail.Get(0) + sbn - 1 - k) % sbn;
    if (!lsq_.sb_valid.GetBit(si)) continue;
    const int ssize = DecodeSizeCode(lsq_.sb_size.Get(si));
    if (!RangesOverlap(addr, size, lsq_.sb_addr.Get(si), ssize)) continue;
    const bool exact = lsq_.sb_addr.Get(si) == addr && ssize >= size;
    if (!exact) {
      spec_failed();
      return false;  // stall until it drains
    }
    lsq_.lq_spec.Set(li, 0);
    lsq_.lq_value.Set(li, lsq_.sb_data.Get(si));
    // Deliberately NOT recorded as a forward (lq_fwd_valid stays 0): the
    // store buffer holds committed stores, older than every in-flight store,
    // so an older-than-load store resolving later with an overlapping
    // address must always squash this load — the fwd_sq shadow test in
    // CheckOrderViolation can never legitimately apply. (Setting fwd_valid
    // here with a stale fwd_sq slot let exactly such loads keep stale data;
    // found by the differential fuzzer.)
    lsq_.lq_state.Set(li, kLqAccessing);
    lsq_.lq_timer.Set(li, 1);
    if (lsq_.lq_has_dst.GetBit(li)) sched_.Wakeup(lsq_.lq_dstp.Get(li));
    return true;
  }

  // Cache access.
  std::uint64_t value = 0;
  switch (dcache_.AccessLoad(addr, size, mem_, li, value)) {
    case DCache::LoadResult::kHit:
      lsq_.lq_spec.Set(li, 0);
      lsq_.lq_value.Set(li, value);
      lsq_.lq_state.Set(li, kLqAccessing);
      lsq_.lq_timer.Set(li, static_cast<std::uint64_t>(cfg_.dcache_latency - 1));
      if (lsq_.lq_has_dst.GetBit(li)) sched_.Wakeup(lsq_.lq_dstp.Get(li));
      return true;
    case DCache::LoadResult::kMiss:
      ++stats_.dcache_misses;
      lsq_.lq_state.Set(li, kLqWaitFill);
      lsq_.lq_spec.Set(li, 0);
      lsq_.lq_misskill.Set(li, 1);  // replay consumers next cycle
      return true;
    case DCache::LoadResult::kRetry:
      spec_failed();
      return false;
  }
  return false;
}

void Core::MemStage() {
  const std::uint64_t n = lsq_.lq_entries();

  // 1. Load-miss kill broadcasts (speculative wakeup verification failed).
  for (std::uint64_t li = 0; li < n; ++li) {
    if (lsq_.lq_valid.GetBit(li) && lsq_.lq_misskill.GetBit(li)) {
      lsq_.lq_misskill.Set(li, 0);
      KillLoadDependents(li);
    }
  }

  // 2. Completed fills allow their loads to re-access.
  for (std::uint64_t li = 0; li < n; ++li) {
    if (lsq_.lq_valid.GetBit(li) && lsq_.lq_state.Get(li) == kLqWaitFill &&
        dcache_.FillReady(li)) {
      dcache_.ReleaseFill(li);
      lsq_.lq_state.Set(li, kLqReady);
    }
  }

  // 3. Accesses in progress: count down, then deliver into the WB bank.
  for (std::uint64_t li = 0; li < n; ++li) {
    if (!lsq_.lq_valid.GetBit(li) || lsq_.lq_state.Get(li) != kLqAccessing)
      continue;
    const std::uint64_t t = lsq_.lq_timer.Get(li);
    if (t > 1) {
      lsq_.lq_timer.Set(li, t - 1);
      continue;
    }
    const std::uint64_t raw = lsq_.lq_value.Get(li);
    const Word65 v{FinishLoad(raw, DecodeSizeCode(lsq_.lq_size.Get(li)),
                              lsq_.lq_sext.GetBit(li)),
                   false};
    if (ProduceResultInternal(
            v, lsq_.lq_dstp.Get(li),
            lsq_.ecc_on ? lsq_.lq_dst_ecc.Get(li) : 0,
            lsq_.lq_has_dst.GetBit(li), lsq_.lq_robtag.Get(li),
            lsq_.lq_sched.Get(li), /*free_sched=*/true)) {
      lsq_.lq_state.Set(li, kLqDone);
      lsq_.lq_done.Set(li, 1);
    }
    // else: WB bank full; retry next cycle.
  }

  // 4. Ready loads attempt their access (oldest first for fairness).
  for (std::uint64_t age = 0; age < n; ++age) {
    const std::uint64_t li = (lsq_.lq_head.Get(0) + age) % n;
    if (!lsq_.lq_valid.GetBit(li) || lsq_.lq_state.Get(li) != kLqReady)
      continue;
    TryLoadAccess(li);
  }
}

void Core::CheckOrderViolation(std::uint64_t sq_index) {
  const std::uint64_t store_tag = lsq_.sq_robtag.Get(sq_index);
  const std::uint64_t saddr = lsq_.sq_addr.Get(sq_index);
  const int ssize = DecodeSizeCode(lsq_.sq_size.Get(sq_index));

  std::uint64_t victim = ~0ULL;
  std::uint64_t victim_age = ~0ULL;
  for (std::uint64_t li = 0; li < lsq_.lq_entries(); ++li) {
    if (!lsq_.lq_valid.GetBit(li) || !lsq_.lq_addr_valid.GetBit(li)) continue;
    const std::uint64_t s = lsq_.lq_state.Get(li);
    if (s != kLqAccessing && s != kLqDone) continue;  // value not bound yet
    const std::uint64_t ltag = lsq_.lq_robtag.Get(li);
    if (!rob_.Younger(ltag, store_tag)) continue;  // load must be younger
    const int lsize = DecodeSizeCode(lsq_.lq_size.Get(li));
    if (!RangesOverlap(lsq_.lq_addr.Get(li), lsize, saddr, ssize)) continue;
    // A forward from a store younger than this one shadows the conflict.
    if (lsq_.lq_fwd_valid.GetBit(li)) {
      const std::uint64_t fsq = lsq_.lq_fwd_sq.Get(li) % lsq_.sq_entries();
      if (lsq_.sq_valid.GetBit(fsq) &&
          rob_.Younger(lsq_.sq_robtag.Get(fsq), store_tag))
        continue;
    }
    const std::uint64_t age = rob_.AgeOf(ltag);
    if (age < victim_age) {
      victim_age = age;
      victim = li;
    }
  }
  if (victim == ~0ULL) return;

  ++stats_.order_violations;
  const std::uint64_t load_tag = lsq_.lq_robtag.Get(victim);
  const std::uint64_t load_pc = PcLoad(rob_.pc.Get(load_tag % rob_.entries()));
  const std::uint64_t store_pc =
      PcLoad(rob_.pc.Get(store_tag % rob_.entries()));
  storesets_.TrainViolation(load_pc, store_pc);
  SquashYoungerThan(load_tag, /*inclusive=*/true, load_pc, kNoRas);
}

// ---------------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------------

void Core::DoBranch(int port, const DecodedInst& d, Word65 a) {
  const std::size_t s = static_cast<std::size_t>(port);
  const std::uint64_t pc = PcLoad(rr_lat_.pc.Get(0));  // branch side-latch
  const std::uint64_t tag = rr_lat_.robtag.Get(s) % rob_.entries();

  bool taken = false;
  std::uint64_t target = pc + 4;
  switch (d.cls) {
    case InsnClass::kCondBranch:
      taken = BranchTaken(d.op, a.lo);
      target = taken ? pc + 4 + static_cast<std::uint64_t>(d.imm) * 4 : pc + 4;
      break;
    case InsnClass::kBr:
    case InsnClass::kBsr:
      taken = true;
      target = pc + 4 + static_cast<std::uint64_t>(d.imm) * 4;
      break;
    case InsnClass::kJmp:
    case InsnClass::kJsr:
    case InsnClass::kRet:
      taken = true;
      target = a.lo & ~3ULL;
      break;
    default:
      break;  // corrupted routing: treated as a not-taken branch
  }

  resolved_target_.Set(tag, PcStore(target));
  bpred_.Train(pc, d, taken, target);
  ++stats_.branches;

  const Word65 link{pc + 4, false};
  const bool produced = ProduceResultInternal(
      link, rr_lat_.dstp.Get(s), rr_lat_.ecc_on ? rr_lat_.dst_ecc.Get(s) : 0,
      rr_lat_.has_dst.GetBit(s), rr_lat_.robtag.Get(s),
      rr_lat_.sched_idx.Get(s), /*free_sched=*/true);
  if (!produced) return;  // WB full: keep the latch, retry next cycle
  rr_lat_.valid.Set(s, 0);

  const bool pred_taken = rr_lat_.pred_taken.GetBit(0);
  const std::uint64_t pred_target = PcLoad(rr_lat_.pred_target.Get(0));
  const std::uint64_t actual_next = taken ? target : pc + 4;
  const std::uint64_t pred_next = pred_taken ? pred_target : pc + 4;
  if (actual_next != pred_next) {
    ++stats_.mispredicts;
    // Recover the RAS pointer to the checkpoint, then re-apply this branch's
    // own effect (pointer recovery, Figure 2).
    std::uint64_t ras = rr_lat_.ras_ckpt.Get(0);
    const std::uint64_t rasn = static_cast<std::uint64_t>(cfg_.ras_entries);
    if (d.cls == InsnClass::kBsr || d.cls == InsnClass::kJsr)
      ras = (ras + 1) % rasn;
    if (d.cls == InsnClass::kRet) ras = (ras + rasn - 1) % rasn;
    SquashYoungerThan(rr_lat_.robtag.Get(s), /*inclusive=*/false, actual_next,
                      ras);
    if (d.cls == InsnClass::kBsr || d.cls == InsnClass::kJsr) {
      // Re-push the (correct) return address lost to the pointer restore.
      // Modeled inside Bpred via a fresh predict-side push.
      // The stack contents at [ras-1] already hold pc+4 from fetch time in
      // the common case; only the pointer needed repair.
    }
  }
}

void Core::DoAgu(int port, const DecodedInst& d, Word65 a, Word65 b) {
  const std::size_t s = static_cast<std::size_t>(port);
  const std::uint64_t addr = a.lo + static_cast<std::uint64_t>(d.imm);
  const std::uint64_t tag = rr_lat_.robtag.Get(s) % rob_.entries();
  const std::uint64_t pc = PcLoad(rob_.pc.Get(tag));

  if (d.cls == InsnClass::kLoad) {
    const std::uint64_t li = rr_lat_.lsq_idx.Get(s) % lsq_.lq_entries();
    if (addr % d.mem_size != 0) {
      rob_.exc.Set(tag, static_cast<std::uint64_t>(Exception::kUnaligned));
      rob_.done.Set(tag, 1);
      lsq_.lq_state.Set(li, kLqDone);
      lsq_.lq_done.Set(li, 1);
      sched_.Free(rr_lat_.sched_idx.Get(s) % sched_.entries());
      rr_lat_.valid.Set(s, 0);
      if (lsq_.lq_spec.GetBit(li)) {
        lsq_.lq_spec.Set(li, 0);
        lsq_.lq_misskill.Set(li, 1);
      }
      return;
    }
    lsq_.lq_addr.Set(li, addr);
    lsq_.lq_addr_valid.Set(li, 1);
    lsq_.lq_size.Set(li, EncodeSizeCode(d.mem_size));
    lsq_.lq_sext.Set(li, d.op == Op::kLdl ? 1 : 0);
    lsq_.lq_state.Set(li, kLqReady);
    rr_lat_.valid.Set(s, 0);
    return;
  }

  if (d.cls == InsnClass::kStore) {
    const std::uint64_t si = rr_lat_.lsq_idx.Get(s) % lsq_.sq_entries();
    if (addr % d.mem_size != 0) {
      rob_.exc.Set(tag, static_cast<std::uint64_t>(Exception::kUnaligned));
      rob_.done.Set(tag, 1);
      sched_.Free(rr_lat_.sched_idx.Get(s) % sched_.entries());
      rr_lat_.valid.Set(s, 0);
      return;
    }
    if (!tlb_.LookupData(addr)) {
      rob_.exc.Set(tag, static_cast<std::uint64_t>(Exception::kDTlbMiss));
      rob_.done.Set(tag, 1);
      sched_.Free(rr_lat_.sched_idx.Get(s) % sched_.entries());
      rr_lat_.valid.Set(s, 0);
      return;
    }
    lsq_.sq_addr.Set(si, addr);
    lsq_.sq_addr_valid.Set(si, 1);
    lsq_.sq_data.Set(si, b.lo);
    lsq_.sq_data_hi.Set(si, b.hi ? 1 : 0);
    lsq_.sq_data_valid.Set(si, 1);
    lsq_.sq_size.Set(si, EncodeSizeCode(d.mem_size));
    rob_.done.Set(tag, 1);
    sched_.Free(rr_lat_.sched_idx.Get(s) % sched_.entries());
    sched_.StoreExecuted(rr_lat_.robtag.Get(s));
    storesets_.StoreComplete(pc, rr_lat_.robtag.Get(s));
    rr_lat_.valid.Set(s, 0);
    CheckOrderViolation(si);
    return;
  }

  // Corrupted routing: execute as an ALU op (defined behaviour).
  const AluResult r = ExecuteAlu(d, a.lo, b.lo);
  if (r.exc != Exception::kNone) {
    rob_.exc.Set(tag, static_cast<std::uint64_t>(r.exc));
    rob_.done.Set(tag, 1);
    sched_.Free(rr_lat_.sched_idx.Get(s) % sched_.entries());
    rr_lat_.valid.Set(s, 0);
    return;
  }
  if (ProduceResultInternal({r.value, false}, rr_lat_.dstp.Get(s),
                            rr_lat_.ecc_on ? rr_lat_.dst_ecc.Get(s) : 0,
                            rr_lat_.has_dst.GetBit(s), rr_lat_.robtag.Get(s),
                            rr_lat_.sched_idx.Get(s), true))
    rr_lat_.valid.Set(s, 0);
}

void Core::ExecuteOnPort(int port) {
  const std::size_t s = static_cast<std::size_t>(port);
  if (!rr_lat_.valid.GetBit(s)) return;
  const DecodedInst d = UnpackCtrl(rr_lat_.ctrl.Get(s));
  const Word65 a{rr_lat_.a_lo.Get(s), rr_lat_.a_hi.GetBit(s)};
  const Word65 b{rr_lat_.b_lo.Get(s), rr_lat_.b_hi.GetBit(s)};

  switch (port) {
    case kPortBranch:
      DoBranch(port, d, a);
      return;
    case kPortAgu0:
    case kPortAgu1:
      DoAgu(port, d, a, b);
      return;
    case kPortComplex: {
      const int slot = cpipe_.FreeSlot();
      if (slot < 0) return;  // structural stall
      const AluResult r = ExecuteAlu(d, a.lo, b.lo);
      const std::size_t c = static_cast<std::size_t>(slot);
      cpipe_.valid.Set(c, 1);
      cpipe_.alloc_ptr.Set(0, (c + 1) % cpipe_.slots);
      cpipe_.timer.Set(c, static_cast<std::uint64_t>(ComplexLatency(d.op) - 1));
      cpipe_.value_lo.Set(c, r.value);
      cpipe_.value_hi.Set(c, 0);
      cpipe_.exc.Set(c, static_cast<std::uint64_t>(r.exc));
      cpipe_.dstp.Set(c, rr_lat_.dstp.Get(s));
      if (cpipe_.ecc_on) cpipe_.dst_ecc.Set(c, rr_lat_.dst_ecc.Get(s));
      cpipe_.has_dst.Set(c, rr_lat_.has_dst.Get(s));
      cpipe_.robtag.Set(c, rr_lat_.robtag.Get(s));
      cpipe_.sched_idx.Set(c, rr_lat_.sched_idx.Get(s));
      rr_lat_.valid.Set(s, 0);
      return;
    }
    default: {  // simple ALU ports
      const AluResult r = ExecuteAlu(d, a.lo, b.lo);
      const std::uint64_t tag = rr_lat_.robtag.Get(s) % rob_.entries();
      if (r.exc != Exception::kNone) {
        rob_.exc.Set(tag, static_cast<std::uint64_t>(r.exc));
        rob_.done.Set(tag, 1);
        sched_.Free(rr_lat_.sched_idx.Get(s) % sched_.entries());
        rr_lat_.valid.Set(s, 0);
        return;
      }
      if (ProduceResultInternal({r.value, false}, rr_lat_.dstp.Get(s),
                                rr_lat_.ecc_on ? rr_lat_.dst_ecc.Get(s) : 0,
                                rr_lat_.has_dst.GetBit(s),
                                rr_lat_.robtag.Get(s),
                                rr_lat_.sched_idx.Get(s), true))
        rr_lat_.valid.Set(s, 0);
      return;
    }
  }
}

void Core::ExecuteStage() {
  // Complex-pipe completion first (frees WB slots fairly).
  for (std::size_t c = 0; c < cpipe_.slots; ++c) {
    if (!cpipe_.valid.GetBit(c)) continue;
    const std::uint64_t t = cpipe_.timer.Get(c);
    if (t > 1) {
      cpipe_.timer.Set(c, t - 1);
      continue;
    }
    const Exception exc = static_cast<Exception>(cpipe_.exc.Get(c) % 7);
    const std::uint64_t tag = cpipe_.robtag.Get(c) % rob_.entries();
    if (exc != Exception::kNone) {
      rob_.exc.Set(tag, static_cast<std::uint64_t>(exc));
      rob_.done.Set(tag, 1);
      sched_.Free(cpipe_.sched_idx.Get(c) % sched_.entries());
      cpipe_.valid.Set(c, 0);
      continue;
    }
    if (ProduceResultInternal({cpipe_.value_lo.Get(c), cpipe_.value_hi.GetBit(c)},
                              cpipe_.dstp.Get(c),
                              cpipe_.ecc_on ? cpipe_.dst_ecc.Get(c) : 0,
                              cpipe_.has_dst.GetBit(c), cpipe_.robtag.Get(c),
                              cpipe_.sched_idx.Get(c), true))
      cpipe_.valid.Set(c, 0);
  }

  for (int port = 0; port < kNumPorts; ++port) ExecuteOnPort(port);
}

// ---------------------------------------------------------------------------
// Register read / select / dispatch
// ---------------------------------------------------------------------------

void Core::RegReadStage() {
  for (std::size_t s = 0; s < issue_lat_.slots; ++s) {
    if (!issue_lat_.valid.GetBit(s) || rr_lat_.valid.GetBit(s)) continue;

    const DecodedInst d = UnpackCtrl(issue_lat_.ctrl.Get(s));
    const RPtr p1 = CheckPtr({issue_lat_.src1p.Get(s),
                              issue_lat_.ecc_on ? issue_lat_.src1_ecc.Get(s) : 0},
                             issue_lat_.ecc_on);
    const RPtr p2 =
        CheckPtr({issue_lat_.src2p.Get(s),
                  issue_lat_.ecc_on ? issue_lat_.src2_ecc.Get(s) : 0},
                 issue_lat_.ecc_on);

    // Wakeup broadcasts are scheduled at issue time with the producer's
    // *advertised* latency. A producer can miss that schedule (writeback
    // bank or complex pipe structurally full, a delayed load delivery), in
    // which case a woken consumer arrives here with an operand that is
    // neither in the register file nor in the bypass bank. Latching the
    // read anyway would capture stale bits, so the uop returns to the
    // scheduler and waits for the producer's actual writeback broadcast
    // (every register-file write re-broadcasts — the safety net). Its own
    // advertised wakeup is premature by the same token and is cancelled;
    // any of its consumers that already issued bounce off this same guard.
    const auto available = [&](const RPtr& p) {
      const std::uint64_t preg = p.val % regfile_.count();
      return regfile_.Ready(preg) || WbBankHolds(preg);
    };
    const bool miss1 = OpHasSrc1(d.op) && !available(p1);
    const bool miss2 = OpHasSrc2(d.op) && !available(p2);
    if (miss1 || miss2) {
      ++stats_.wakeup_replays;
      const std::uint64_t si = issue_lat_.sched_idx.Get(s) % sched_.entries();
      if (sched_.valid.GetBit(si) &&
          sched_.robtag.Get(si) == issue_lat_.robtag.Get(s)) {
        sched_.state.Set(si, Scheduler::kWaiting);
        if (miss1) sched_.src1_rdy.Set(si, 0);
        if (miss2) sched_.src2_rdy.Set(si, 0);
      }
      if (issue_lat_.has_dst.GetBit(s)) wakeups_.Kill(issue_lat_.dstp.Get(s));
      issue_lat_.valid.Set(s, 0);
      continue;
    }

    const Word65 a = ReadOperand(p1.val % regfile_.count());
    Word65 b{static_cast<std::uint64_t>(d.imm), false};
    if (OpHasSrc2(d.op)) b = ReadOperand(p2.val % regfile_.count());

    rr_lat_.valid.Set(s, 1);
    rr_lat_.ctrl.Set(s, issue_lat_.ctrl.Get(s));
    if (s == kPortBranch) {
      rr_lat_.pc.Set(0, issue_lat_.pc.Get(0));
      rr_lat_.pred_taken.Set(0, issue_lat_.pred_taken.Get(0));
      rr_lat_.pred_target.Set(0, issue_lat_.pred_target.Get(0));
      rr_lat_.ras_ckpt.Set(0, issue_lat_.ras_ckpt.Get(0));
    }
    rr_lat_.src1p.Set(s, issue_lat_.src1p.Get(s));
    rr_lat_.src2p.Set(s, issue_lat_.src2p.Get(s));
    rr_lat_.dstp.Set(s, issue_lat_.dstp.Get(s));
    if (rr_lat_.ecc_on) {
      rr_lat_.src1_ecc.Set(s, issue_lat_.src1_ecc.Get(s));
      rr_lat_.src2_ecc.Set(s, issue_lat_.src2_ecc.Get(s));
      rr_lat_.dst_ecc.Set(s, issue_lat_.dst_ecc.Get(s));
    }
    rr_lat_.has_dst.Set(s, issue_lat_.has_dst.Get(s));
    rr_lat_.robtag.Set(s, issue_lat_.robtag.Get(s));
    rr_lat_.lsq_idx.Set(s, issue_lat_.lsq_idx.Get(s));
    rr_lat_.sched_idx.Set(s, issue_lat_.sched_idx.Get(s));
    rr_lat_.a_lo.Set(s, a.lo);
    rr_lat_.a_hi.Set(s, a.hi ? 1 : 0);
    rr_lat_.b_lo.Set(s, b.lo);
    rr_lat_.b_hi.Set(s, b.hi ? 1 : 0);
    issue_lat_.valid.Set(s, 0);
  }
}

void Core::SelectStage() {
  // Fire matured wakeup broadcasts.
  for (std::size_t i = 0; i < wakeups_.slots; ++i) {
    if (!wakeups_.valid.GetBit(i)) continue;
    const std::uint64_t d = wakeups_.delay.Get(i);
    if (d == 0) {
      sched_.Wakeup(wakeups_.preg.Get(i));
      wakeups_.valid.Set(i, 0);
    } else {
      wakeups_.delay.Set(i, d - 1);
    }
  }

  // Collect ready entries, oldest first, and bind them to free ports.
  SelectCandidate* const ready = select_ready_.data();
  std::size_t n_ready = 0;
  sched_.ForEachReady([&](std::size_t i) {
    const DecodedInst d = UnpackCtrl(sched_.ctrl.Get(i));
    ready[n_ready++] = {rob_.AgeOf(sched_.robtag.Get(i)), i, PortFor(d.cls)};
  });
  std::sort(ready, ready + n_ready,
            [](const SelectCandidate& x, const SelectCandidate& y) {
              return x.age < y.age;
            });

  auto port_free = [&](int p) {
    return !issue_lat_.valid.GetBit(static_cast<std::size_t>(p));
  };
  auto issue_to = [&](int p, std::size_t i) {
    const std::size_t s = static_cast<std::size_t>(p);
    issue_lat_.valid.Set(s, 1);
    issue_lat_.ctrl.Set(s, sched_.ctrl.Get(i));
    if (p == kPortBranch) {
      issue_lat_.pc.Set(0, sched_.pc.Get(i));
      issue_lat_.pred_taken.Set(0, sched_.pred_taken.Get(i));
      issue_lat_.pred_target.Set(0, sched_.pred_target.Get(i));
      issue_lat_.ras_ckpt.Set(0, sched_.ras_ckpt.Get(i));
    }
    issue_lat_.src1p.Set(s, sched_.src1p.Get(i));
    issue_lat_.src2p.Set(s, sched_.src2p.Get(i));
    issue_lat_.dstp.Set(s, sched_.dstp.Get(i));
    if (issue_lat_.ecc_on) {
      issue_lat_.src1_ecc.Set(s, sched_.src1_ecc.Get(i));
      issue_lat_.src2_ecc.Set(s, sched_.src2_ecc.Get(i));
      issue_lat_.dst_ecc.Set(s, sched_.dst_ecc.Get(i));
    }
    issue_lat_.has_dst.Set(s, sched_.has_dst.Get(i));
    issue_lat_.robtag.Set(s, sched_.robtag.Get(i));
    issue_lat_.lsq_idx.Set(s, sched_.lsq_idx.Get(i));
    issue_lat_.sched_idx.Set(s, i);
    sched_.state.Set(i, Scheduler::kIssued);

    // Schedule the wakeup broadcast for this producer's latency class.
    if (sched_.has_dst.GetBit(i)) {
      const DecodedInst d = UnpackCtrl(sched_.ctrl.Get(i));
      std::uint64_t delay = 0;  // simple ALU / branch link
      if (d.cls == InsnClass::kAluComplex)
        delay = static_cast<std::uint64_t>(ComplexLatency(d.op) - 1);
      else if (d.cls == InsnClass::kLoad)
        delay = 2;  // speculative: assumes an L1 hit
      wakeups_.Schedule(sched_.dstp.Get(i), delay);
    }
  };

  int simple_used = 0, agu_used = 0;
  bool complex_used = false, branch_used = false;
  for (std::size_t k = 0; k < n_ready; ++k) {
    const SelectCandidate& r = ready[k];
    switch (r.pclass) {
      case PortClass::kSimple:
        if (simple_used == 0 && port_free(kPortSimple0)) {
          issue_to(kPortSimple0, r.entry);
          ++simple_used;
        } else if (simple_used <= 1 && port_free(kPortSimple1)) {
          issue_to(kPortSimple1, r.entry);
          simple_used = 2;
        }
        break;
      case PortClass::kComplex:
        if (!complex_used && port_free(kPortComplex)) {
          issue_to(kPortComplex, r.entry);
          complex_used = true;
        }
        break;
      case PortClass::kBranch:
        if (!branch_used && port_free(kPortBranch)) {
          issue_to(kPortBranch, r.entry);
          branch_used = true;
        }
        break;
      case PortClass::kAgu:
        if (agu_used == 0 && port_free(kPortAgu0)) {
          issue_to(kPortAgu0, r.entry);
          ++agu_used;
        } else if (agu_used <= 1 && port_free(kPortAgu1)) {
          issue_to(kPortAgu1, r.entry);
          agu_used = 2;
        }
        break;
    }
  }
}

void Core::DispatchStage() {
  DecodeLatchBank& d2 = decode_.stage2;
  std::uint64_t consumed = 0;

  for (std::uint64_t i = 0; i < d2.width; ++i) {
    if (!d2.valid.GetBit(i)) break;
    const std::uint32_t word = static_cast<std::uint32_t>(d2.insn.Get(i));
    const DecodedInst d = Decode(word);  // register specifiers from the word
    const DecodedInst dc = UnpackCtrl(d2.ctrl.Get(i));  // routing from ctrl

    if (rob_.Full()) break;
    const bool needs_sched = dc.cls != InsnClass::kSyscall &&
                             dc.cls != InsnClass::kIllegal;
    std::optional<std::size_t> slot;
    if (needs_sched) {
      slot = sched_.FreeEntry();
      if (!slot) break;
    }
    if (dc.cls == InsnClass::kLoad && lsq_.LqFull()) break;
    if (dc.cls == InsnClass::kStore && lsq_.SqFull()) break;
    if (d.dst != kNoReg && rename_.SpecFreeCount() == 0) break;

    const std::uint64_t pc = PcLoad(d2.pc.Get(i));
    const std::uint64_t tag = rob_.Allocate();
    rob_seq_[tag] = d2.seq[i];
    rob_.pc.Set(tag, d2.pc.Get(i));
    rob_.insn.Set(tag, word);
    if (rob_.parity_on) rob_.parity.Set(tag, d2.parity.Get(i));
    rob_.done.Set(tag, 0);
    rob_.exc.Set(tag, 0);
    rob_.is_store.Set(tag, dc.cls == InsnClass::kStore ? 1 : 0);
    rob_.is_load.Set(tag, dc.cls == InsnClass::kLoad ? 1 : 0);
    rob_.is_branch.Set(tag, d.IsBranchLike() ? 1 : 0);
    rob_.is_syscall.Set(tag, dc.cls == InsnClass::kSyscall ? 1 : 0);
    rob_.lsq_idx.Set(tag, 0);

    // Rename: sources first, then the destination.
    RPtr s1{0, rename_.ecc_on() ? EncodeRegptrEcc(0) : 0};
    RPtr s2 = s1;
    bool rdy1 = true, rdy2 = true;
    if (d.src1 != kNoReg) {
      s1 = rename_.LookupSpec(d.src1);
      rdy1 = regfile_.Ready(s1.val % regfile_.count());
      if (!rdy1) rdy1 = WbBankHolds(s1.val);
    }
    if (d.src2 != kNoReg) {
      s2 = rename_.LookupSpec(d.src2);
      rdy2 = regfile_.Ready(s2.val % regfile_.count());
      if (!rdy2) rdy2 = WbBankHolds(s2.val);
    }

    RPtr newp{0, rename_.ecc_on() ? EncodeRegptrEcc(0) : 0};
    RPtr oldp = newp;
    const bool has_dst = d.dst != kNoReg;
    if (has_dst) {
      newp = rename_.PopFree();
      oldp = rename_.RenameDst(d.dst, newp);
      regfile_.SetReady(newp.val % regfile_.count(), false);
    }
    rob_.areg.Set(tag, d.dst == kNoReg ? 0 : d.dst);
    rob_.has_dst.Set(tag, has_dst ? 1 : 0);
    WritePtrField(rob_.newp, rob_.newp_ecc, tag, newp, rob_.ecc_on);
    WritePtrField(rob_.oldp, rob_.oldp_ecc, tag, oldp, rob_.ecc_on);

    if (dc.cls == InsnClass::kIllegal) {
      rob_.done.Set(tag, 1);
      rob_.exc.Set(tag, static_cast<std::uint64_t>(Exception::kIllegalOpcode));
      ++consumed;
      continue;
    }
    if (dc.cls == InsnClass::kSyscall) {
      rob_.done.Set(tag, 1);
      ++consumed;
      continue;
    }

    std::uint64_t lsq_idx = 0;
    bool wait_store = false;
    std::uint64_t wait_tag = 0;
    if (dc.cls == InsnClass::kLoad) {
      lsq_idx = lsq_.AllocLq();
      lsq_.lq_robtag.Set(lsq_idx, tag);
      lsq_.lq_size.Set(lsq_idx, EncodeSizeCode(dc.mem_size));
      lsq_.lq_sext.Set(lsq_idx, d.op == Op::kLdl ? 1 : 0);
      WritePtrField(lsq_.lq_dstp, lsq_.lq_dst_ecc, lsq_idx, newp,
                    lsq_.ecc_on);
      lsq_.lq_has_dst.Set(lsq_idx, has_dst ? 1 : 0);
      lsq_.lq_spec.Set(lsq_idx, has_dst ? 1 : 0);
      lsq_.lq_sched.Set(lsq_idx, *slot);
      if (const auto dep = storesets_.LoadDependence(pc)) {
        wait_store = true;
        wait_tag = *dep;
      }
      rob_.lsq_idx.Set(tag, lsq_idx);
    } else if (dc.cls == InsnClass::kStore) {
      lsq_idx = lsq_.AllocSq();
      lsq_.sq_robtag.Set(lsq_idx, tag);
      lsq_.sq_size.Set(lsq_idx, EncodeSizeCode(dc.mem_size));
      storesets_.StoreDispatched(pc, tag);
      rob_.lsq_idx.Set(tag, lsq_idx);
    }

    const std::size_t e = *slot;
    sched_.NoteAllocated(e);
    sched_.valid.Set(e, 1);
    sched_.state.Set(e, Scheduler::kWaiting);
    sched_.ctrl.Set(e, d2.ctrl.Get(i));
    sched_.insn.Set(e, word);
    if (sched_.parity_on) sched_.parity.Set(e, d2.parity.Get(i));
    sched_.pc.Set(e, d2.pc.Get(i));
    sched_.pred_taken.Set(e, d2.pred_taken.Get(i));
    sched_.pred_target.Set(e, d2.pred_target.Get(i));
    sched_.ras_ckpt.Set(e, d2.ras_ckpt.Get(i));
    WritePtrField(sched_.src1p, sched_.src1_ecc, e, s1, sched_.ecc_on);
    WritePtrField(sched_.src2p, sched_.src2_ecc, e, s2, sched_.ecc_on);
    WritePtrField(sched_.dstp, sched_.dst_ecc, e, newp, sched_.ecc_on);
    sched_.src1_rdy.Set(e, rdy1 ? 1 : 0);
    sched_.src2_rdy.Set(e, rdy2 ? 1 : 0);
    sched_.has_dst.Set(e, has_dst ? 1 : 0);
    sched_.robtag.Set(e, tag);
    sched_.lsq_idx.Set(e, lsq_idx);
    sched_.wait_store.Set(e, wait_store ? 1 : 0);
    sched_.wait_tag.Set(e, wait_tag);
    ++consumed;
  }

  d2.ConsumePrefix(consumed);
}

bool Core::WbBankHolds(std::uint64_t preg) const {
  const FieldScan v(wb_.valid), hd(wb_.has_dst), dp(wb_.dstp);
  for (std::size_t i = 0; i < wb_.slots; ++i)
    if (v[i] != 0 && hd[i] != 0 && dp[i] == preg) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Front end
// ---------------------------------------------------------------------------

void Core::FrontEnd() {
  DecodeLatchBank& d1 = decode_.stage1;
  if (d1.Occupancy() == 0) {
    for (std::uint64_t i = 0; i < d1.width; ++i) {
      if (fetch_.FqEmpty()) break;
      const std::uint64_t f = fetch_.FqHeadIndex();
      d1.valid.Set(i, 1);
      d1.pc.Set(i, fetch_.fq_pc.Get(f));
      d1.insn.Set(i, fetch_.fq_insn.Get(f));
      if (d1.parity_on) d1.parity.Set(i, fetch_.fq_parity.Get(f));
      d1.pred_taken.Set(i, fetch_.fq_pred_taken.Get(f));
      d1.pred_target.Set(i, fetch_.fq_pred_target.Get(f));
      d1.ras_ckpt.Set(i, fetch_.fq_ras_ckpt.Get(f));
      d1.seq[i] = fetch_.fq_seq[f];
      fetch_.FqPopHead();
    }
  }
  fetch_.DrainStaging();
  if (!fetch_.Run(icache_, bpred_, mem_, tlb_, &itlb_addr_))
    itlb_miss_ = true;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void Core::SquashLatchesWithTag(std::uint64_t tag) {
  auto scrub = [&](UopLatchBank& bank) {
    for (std::size_t s = 0; s < bank.slots; ++s)
      if (bank.valid.GetBit(s) && bank.robtag.Get(s) == tag)
        bank.valid.Set(s, 0);
  };
  scrub(issue_lat_);
  scrub(rr_lat_);
  for (std::size_t c = 0; c < cpipe_.slots; ++c)
    if (cpipe_.valid.GetBit(c) && cpipe_.robtag.Get(c) == tag)
      cpipe_.valid.Set(c, 0);
  for (std::size_t w = 0; w < wb_.slots; ++w)
    if (wb_.valid.GetBit(w) && wb_.robtag.Get(w) == tag) wb_.valid.Set(w, 0);
}

void Core::SquashYoungerThan(std::uint64_t rob_tag, bool inclusive,
                             std::uint64_t restart_pc,
                             std::uint64_t ras_ckpt) {
  const std::uint64_t boundary_age = rob_.AgeOf(rob_tag % rob_.entries());
  while (rob_.Count() > 0) {
    const std::uint64_t youngest =
        (rob_.Head() + rob_.Count() - 1) % rob_.entries();
    const std::uint64_t age = rob_.AgeOf(youngest);
    if (inclusive ? age < boundary_age : age <= boundary_age) break;

    const std::uint64_t t = rob_.PopTail();
    if (rob_.has_dst.GetBit(t)) {
      const RPtr newp = ReadPtrField(rob_.newp, rob_.newp_ecc, t, rob_.ecc_on);
      const RPtr oldp = ReadPtrField(rob_.oldp, rob_.oldp_ecc, t, rob_.ecc_on);
      rename_.UndoRename(rob_.areg.Get(t), oldp);
      rename_.UnpopFree(newp);
      wakeups_.Kill(newp.val);
    }
    if (rob_.is_load.GetBit(t)) {
      const std::uint64_t li = lsq_.PopLqTail();
      dcache_.AbandonMshr(li);
    }
    if (rob_.is_store.GetBit(t)) {
      lsq_.PopSqTail();
      storesets_.StoreComplete(PcLoad(rob_.pc.Get(t)), t);
    }
    for (std::size_t e = 0; e < sched_.entries(); ++e)
      if (sched_.valid.GetBit(e) && sched_.robtag.Get(e) == t)
        sched_.valid.Set(e, 0);
    SquashLatchesWithTag(t);
  }

  decode_.Flush();
  fetch_.Redirect(restart_pc);
  if (ras_ckpt != kNoRas) bpred_.SetRasPtr(ras_ckpt);
}

void Core::FullFlush(std::uint64_t restart_pc) {
  ++stats_.full_flushes;
  rob_.Clear();
  lsq_.ClearQueues();
  sched_.Clear();
  decode_.Flush();
  issue_lat_.Invalidate();
  rr_lat_.Invalidate();
  wb_.Invalidate();
  cpipe_.Invalidate();
  wakeups_.Invalidate();
  storesets_.FlushInflight();
  dcache_.AbandonAll();
  rename_.CopyArchToSpec();
  for (std::uint64_t r = 0; r < regfile_.count(); ++r)
    regfile_.SetReady(r, true);
  fetch_.Redirect(restart_pc);
}

}  // namespace tfsim
