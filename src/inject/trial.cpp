#include "inject/trial.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <sstream>

#include "check/invariants.h"
#include "util/rng.h"

namespace tfsim {
namespace {

// Architectural equivalence of two retire events. The recorded PC field is
// deliberately NOT compared: a flipped PC *bookkeeping* bit (e.g. in a ROB
// entry) is architecturally silent until the machine actually uses it — for
// branch execution, exception reporting, or a recovery refetch — at which
// point the divergence shows up in the instruction stream or data values.
// This matches the paper's ctrl failure definition ("the processor fetches,
// executes, and commits an incorrect (but valid) instruction").
bool ArchEquivalent(const RetireEvent& got, const RetireEvent& want) {
  return got.exc == Exception::kNone && got.insn == want.insn &&
         got.dst == want.dst && got.value == want.value &&
         got.is_store == want.is_store &&
         got.store_addr == want.store_addr &&
         got.store_value == want.store_value &&
         got.store_size == want.store_size &&
         got.is_syscall == want.is_syscall;
}

// Classifies a retire-event divergence into a Table 2 failure mode.
FailureMode ClassifyEventMismatch(const RetireEvent& got,
                                  const RetireEvent& want) {
  if (got.exc != Exception::kNone) {
    switch (got.exc) {
      case Exception::kITlbMiss: return FailureMode::kItlb;
      case Exception::kDTlbMiss: return FailureMode::kDtlb;
      default: return FailureMode::kExcept;
    }
  }
  if (got.insn != want.insn)
    return FailureMode::kCtrl;  // wrong (but valid) instruction committed
  if (got.is_store != want.is_store || got.store_addr != want.store_addr ||
      got.store_value != want.store_value ||
      got.store_size != want.store_size)
    return FailureMode::kMem;
  return FailureMode::kRegfile;  // wrong destination register or value
}

Outcome OutcomeOf(FailureMode m) {
  switch (m) {
    case FailureMode::kExcept:
    case FailureMode::kLocked:
      return Outcome::kTerminated;
    default:
      return Outcome::kSdc;
  }
}

// A quarantined trial: the kTrialError stand-in record and why.
TrialRunner::Result Quarantined(std::string error) {
  TrialRunner::Result res;
  res.record.outcome = Outcome::kTrialError;
  res.quarantined = true;
  res.error = std::move(error);
  return res;
}

// Restores `core` to the state just before the injection cycle: from a
// delta snapshot when `point` is set (fast path), otherwise by replaying
// `offset` cycles from the checkpoint. Both land on bit-identical state.
void LoadInjectionState(Core& core, const GoldenRun& golden,
                        const TrialSpec& spec,
                        const GoldenFastPath::Point* point) {
  if (point != nullptr) {
    core.LoadDelta(golden.checkpoints[point->base_checkpoint], point->delta);
  } else {
    core.Load(
        golden.checkpoints.at(static_cast<std::size_t>(spec.checkpoint)));
  }
  core.tlb() = golden.tlb;  // preloaded with every fault-free page
  if (point == nullptr) {
    // Advance deterministically to the injection cycle (identical to golden).
    for (std::uint64_t c = 0; c < spec.offset; ++c) core.Cycle();
  }
}

}  // namespace

InjectionSite ResolveInjectionSite(const GoldenSpec& spec,
                                   const TrialSpec& trial,
                                   const StateRegistry& registry) {
  InjectionSite site;
  site.base = static_cast<std::uint64_t>(trial.checkpoint) * spec.spacing;
  site.inj_cycle = site.base + trial.offset;
  // Checkpoints are saved before their cycle executes, so after `offset`
  // cycles the machine state equals timeline[base + offset - 1].
  site.inj_index = site.base + (trial.offset > 0 ? trial.offset - 1 : 0);

  const std::uint64_t total = registry.InjectableBits(trial.include_ram);
  site.primary = registry.LocateBit(trial.bit_index % total, trial.include_ram);
  site.flips.push_back(site.primary);
  for (int k = 1; k < trial.flips; ++k) {
    BitLocation extra;
    if (trial.adjacent) {
      extra = site.primary;
      extra.bit = static_cast<std::uint8_t>((site.primary.bit + k) %
                                            site.primary.width);
      if (extra.bit == site.primary.bit) break;  // narrower than the burst
    } else {
      extra = registry.LocateBit(
          Mix64(trial.bit_index + static_cast<std::uint64_t>(k) * 0x9E3779B9) %
              total,
          trial.include_ram);
    }
    site.flips.push_back(extra);
  }
  return site;
}

FastPathPlan PlanFastPath(const GoldenSpec& spec,
                          const std::vector<TrialSpec>& trials,
                          const StateRegistry& registry) {
  FastPathPlan plan;
  plan.snapshot_cycles.reserve(trials.size());
  for (const TrialSpec& t : trials) {
    const InjectionSite site = ResolveInjectionSite(spec, t, registry);
    plan.snapshot_cycles.push_back(site.inj_cycle);
    for (const BitLocation& loc : site.flips)
      plan.watches.emplace_back(registry.WordIndexOf(loc), site.inj_cycle);
  }
  std::sort(plan.snapshot_cycles.begin(), plan.snapshot_cycles.end());
  plan.snapshot_cycles.erase(
      std::unique(plan.snapshot_cycles.begin(), plan.snapshot_cycles.end()),
      plan.snapshot_cycles.end());
  std::sort(plan.watches.begin(), plan.watches.end());
  plan.watches.erase(std::unique(plan.watches.begin(), plan.watches.end()),
                     plan.watches.end());
  return plan;
}

TrialRunner::TrialRunner(std::shared_ptr<const GoldenRun> golden,
                         TrialPolicy policy)
    : golden_(std::move(golden)), policy_(policy) {
  CoreConfig cfg = golden_->cfg;
  cfg.check_invariants = policy_.check_invariants;
  core_ = std::make_unique<Core>(cfg, golden_->program);
}

TrialRunner::Result TrialRunner::Run(const TrialSpec& spec, bool want_trace,
                                     const std::function<void()>& fault_hook) {
  Result res;
  try {
    if (fault_hook) fault_hook();
    res.record = RunOnce(spec, want_trace ? &res.trace : nullptr, &res.fast);
  } catch (const std::exception& e) {
    return Quarantined(e.what());
  } catch (...) {
    return Quarantined("unknown error");
  }
  // Checked runs: a structurally inconsistent machine quarantines the trial
  // even when classification succeeded — its record must not pollute the
  // outcome distribution. The trace (which carries the violation details)
  // is kept for diagnosis.
  if (policy_.check_invariants) {
    if (const check::InvariantChecker* chk = core_->invariant_checker();
        chk != nullptr && chk->total() != 0) {
      const check::InvariantViolation& v = chk->violations().front();
      std::ostringstream msg;
      msg << "invariant violation [" << check::InvariantKindName(v.kind)
          << "] at trial cycle " << v.cycle << ": " << v.detail;
      res.error = msg.str();
      res.record = TrialRecord{};
      res.record.outcome = Outcome::kTrialError;
      res.quarantined = true;
    }
  }
  return res;
}

TrialRecord TrialRunner::RunOnce(const TrialSpec& spec,
                                 obs::PropagationTrace* trace, bool* fast) {
  const InjectionSite site =
      ResolveInjectionSite(golden_->spec, spec, core_->registry());
  TrialRecord rec;
  if (TryShortcut(spec, site, rec, trace)) {
    *fast = true;
    return rec;
  }
  *fast = false;
  return Simulate(spec, site, trace);
}

// Dormancy shortcut: classify a trial from the golden recorder's first-access
// data without simulating a single cycle. While every flipped word remains
// untouched by the (tracked) golden execution, the trial machine runs
// cycle-for-cycle identically to golden outside those words — no comparison
// the differential loop performs can fire. So:
//   - first access is a WRITE at golden cycle W: the flip is overwritten and
//     the machines become bit-identical; the loop's StateHash check matches
//     exactly at trial cycle W - J + 1 (μArch Match).
//   - no access inside the window: the flip stays latent; the loop runs to
//     the end (Gray Area at `window`).
//   - first access is a READ: the divergent value enters the pipeline and
//     anything may happen — fall back to real simulation.
// Flips that cancel (multi-bit bursts revisiting a bit) leave the machine
// equal to golden from the start: StateHash matches at cycle 1.
bool TrialRunner::TryShortcut(const TrialSpec& spec, const InjectionSite& site,
                              TrialRecord& rec, obs::PropagationTrace* trace) {
  const GoldenRun& golden = *golden_;
  if (!policy_.fast_path || policy_.check_invariants ||
      !golden.fastpath.enabled || golden.fastpath.access == nullptr)
    return false;
  const GoldenTimeline& tl = golden.timeline;
  const std::uint64_t win = golden.spec.window;
  const std::uint64_t inj = site.inj_cycle;
  // The identical-execution argument needs every window cycle inside the
  // recorded timeline (the loop classifies Gray when it falls off the end,
  // and the recorder only tracked accesses it recorded).
  if (inj + win > tl.state_hash.size()) return false;
  const auto point_it = golden.fastpath.points.find(inj);
  if (point_it == golden.fastpath.points.end()) return false;
  const WordFirstAccessTracker& access = *golden.fastpath.access;

  // Net effect per flipped word (bursts can revisit a word; a fully
  // cancelled word is never divergent).
  struct WordFlip {
    std::size_t word;
    std::uint64_t mask;
    StateCat cat;
  };
  std::vector<WordFlip> words;
  for (const BitLocation& loc : site.flips) {
    const std::size_t w = core_->registry().WordIndexOf(loc);
    bool merged = false;
    for (WordFlip& wf : words) {
      if (wf.word == w) {
        wf.mask ^= 1ULL << loc.bit;
        merged = true;
        break;
      }
    }
    if (!merged) words.push_back({w, 1ULL << loc.bit, loc.cat});
  }

  bool latent = false;              // some divergent word outlives the window
  std::uint64_t converge_c = 1;     // trial cycle of full re-convergence
  std::uint32_t divergent_cats = 0; // cats divergent at the first sample
  for (const WordFlip& wf : words) {
    if (wf.mask == 0) continue;  // cancelled: identical to golden throughout
    if (!access.Watched(wf.word, inj)) return false;  // outside the plan
    const WordFirstAccessTracker::FirstAccess fa = access.Lookup(wf.word, inj);
    const bool accessed =
        fa.cycle >= 0 && static_cast<std::uint64_t>(fa.cycle) < inj + win;
    if (accessed && !fa.is_write) return false;  // read while divergent
    if (!accessed) {
      latent = true;
      divergent_cats |= 1u << static_cast<int>(wf.cat);
    } else {
      const std::uint64_t c = static_cast<std::uint64_t>(fa.cycle) - inj + 1;
      converge_c = std::max(converge_c, c);
      // Divergent at trial cycle 1's sample unless overwritten during the
      // very first cycle.
      if (static_cast<std::uint64_t>(fa.cycle) > inj)
        divergent_cats |= 1u << static_cast<int>(wf.cat);
    }
  }

  Outcome outcome;
  std::uint64_t cycles;
  if (win == 0) {  // degenerate: the loop never runs
    outcome = Outcome::kGrayArea;
    cycles = 0;
  } else if (latent) {
    outcome = Outcome::kGrayArea;
    cycles = win;
  } else {
    outcome = Outcome::kMicroArchMatch;
    cycles = converge_c;
  }

  rec.outcome = outcome;
  rec.mode = FailureMode::kNoFailure;
  rec.cycles = static_cast<std::uint32_t>(cycles);
  rec.cat = site.primary.cat;
  rec.storage = site.primary.storage;
  rec.valid_instrs = tl.ValidInstrsAt(site.inj_index);
  rec.inflight = static_cast<std::uint32_t>(point_it->second.delta.inflight);

  if (trace) {
    trace->field = site.primary.name;
    trace->cat = site.primary.cat;
    trace->storage = site.primary.storage;
    trace->bit = site.primary.bit;
    trace->flips = spec.flips;
    trace->valid_instrs = rec.valid_instrs;
    trace->inflight = rec.inflight;
    trace->outcome = outcome;
    trace->mode = FailureMode::kNoFailure;
    trace->classified_cycle = rec.cycles;
    trace->arch_divergence_cycle = -1;  // Match/Gray never diverged
    // The divergent set only ever shrinks (words are overwritten, never
    // read), so the category mask and any cross-category spread are fully
    // determined by the first sample.
    if (win > 0) {
      trace->cats_touched_mask = divergent_cats;
      for (int cat = 0; cat < kNumStateCats; ++cat) {
        if ((divergent_cats & (1u << cat)) == 0) continue;
        if (static_cast<StateCat>(cat) == site.primary.cat) continue;
        trace->first_spread_cycle = 1;
        trace->first_spread_cat = static_cast<StateCat>(cat);
        break;
      }
    }
  }
  return true;
}

TrialRecord TrialRunner::Simulate(const TrialSpec& spec,
                                  const InjectionSite& site,
                                  obs::PropagationTrace* trace) {
  const GoldenRun& golden = *golden_;
  const GoldenTimeline& tl = golden.timeline;
  Core& core = *core_;
  TrialRecord rec;

  // Checked runs always replay — violation cycles are reported relative to
  // the checkpoint Load, and the pre-injection advance must be checked too.
  const GoldenFastPath::Point* point = nullptr;
  if (policy_.fast_path && !policy_.check_invariants &&
      golden.fastpath.enabled) {
    const auto it = golden.fastpath.points.find(site.inj_cycle);
    if (it != golden.fastpath.points.end()) point = &it->second;
  }
  LoadInjectionState(core, golden, spec, point);
  // Propagation tracing diffs the trial machine against a fault-free
  // replica started from the same state and stepped in lockstep.
  if (trace) {
    if (!replica_)
      replica_ = std::make_unique<Core>(golden.cfg, golden.program);
    LoadInjectionState(*replica_, golden, spec, point);
  }

  const std::uint64_t base = site.base;
  rec.valid_instrs = tl.ValidInstrsAt(site.inj_index);
  rec.inflight = static_cast<std::uint32_t>(core.InFlight());

  // Flip one uniformly chosen bit of eligible state (plus optional extra
  // flips for the multi-bit extension models).
  for (const BitLocation& loc : site.flips) core.registry().FlipBit(loc);
  rec.cat = site.primary.cat;
  rec.storage = site.primary.storage;

  if (trace) {
    trace->field = site.primary.name;
    trace->cat = site.primary.cat;
    trace->storage = site.primary.storage;
    trace->bit = site.primary.bit;
    trace->flips = spec.flips;
    trace->valid_instrs = rec.valid_instrs;
    trace->inflight = rec.inflight;
  }

  auto finish = [&](Outcome o, FailureMode m, std::uint64_t cycles) {
    rec.outcome = o;
    rec.mode = m;
    rec.cycles = static_cast<std::uint32_t>(cycles);
    if (trace) {
      trace->outcome = o;
      trace->mode = m;
      trace->classified_cycle = rec.cycles;
      // Every failure mode except deadlock/livelock is detected as an
      // architectural divergence (wrong event, exception or state mismatch)
      // in the cycle it is classified; a locked machine never diverged.
      trace->arch_divergence_cycle =
          m != FailureMode::kNoFailure && m != FailureMode::kLocked
              ? static_cast<std::int64_t>(cycles)
              : -1;
      // Structural self-check results (checked trials only). Violation
      // cycles are CoreStats cycles since the checkpoint Load; the injection
      // happened after `offset` of them, and the pre-injection advance is
      // fault-free, so the difference is the injection-relative latency.
      if (const check::InvariantChecker* chk = core.invariant_checker();
          chk && chk->total() != 0) {
        trace->invariant_violations = chk->total();
        const check::InvariantViolation& v = chk->violations().front();
        trace->first_violation_cycle = static_cast<std::int64_t>(v.cycle) -
                                       static_cast<std::int64_t>(spec.offset);
        trace->first_violation_kind = check::InvariantKindName(v.kind);
      }
    }
    return rec;
  };

  const std::uint64_t win = golden.spec.window;
  std::uint64_t no_retire_cycles = 0;
  // Absolute retirement index for event comparison. Tracked locally because
  // exception events appear in RetiredThisCycle() without incrementing the
  // core's retired_total.
  std::uint64_t abs_index = core.RetiredTotal();
  for (std::uint64_t c = 1; c <= win; ++c) {
    core.Cycle();
    const std::uint64_t gidx = base + spec.offset + c - 1;
    if (gidx >= tl.state_hash.size())
      return finish(Outcome::kGrayArea, FailureMode::kNoFailure, c);

    // Propagation tracing: which categories differ from the golden replica
    // this cycle, and when the fault first escaped the injected category
    // (lowest category index first). Read-only for the trial machine.
    if (trace) {
      replica_->Cycle();
      const std::uint32_t fresh = core.registry().DivergentCats(
          replica_->registry(), trace->cats_touched_mask);
      trace->cats_touched_mask |= fresh;
      const std::uint32_t spread =
          fresh & ~(1u << static_cast<int>(site.primary.cat));
      if (spread != 0 && trace->first_spread_cycle < 0) {
        trace->first_spread_cycle = static_cast<std::int64_t>(c);
        trace->first_spread_cat =
            static_cast<StateCat>(std::countr_zero(spread));
      }
    }

    // Architectural retire-event comparison (paper: architectural state is
    // verified continuously; any inconsistency is an SDC or Terminated).
    for (const RetireEvent& ev : core.RetiredThisCycle()) {
      const RetireEvent* want = tl.EventAt(abs_index++);
      if (!want)
        return finish(Outcome::kGrayArea, FailureMode::kNoFailure, c);
      if (!ArchEquivalent(ev, *want)) {
        const FailureMode m = ClassifyEventMismatch(ev, *want);
        return finish(OutcomeOf(m), m, c);
      }
    }

    // Fetch-side TLB miss (conservatively SDC, like the paper).
    if (core.itlb_miss())
      return finish(Outcome::kSdc, FailureMode::kItlb, c);
    // An exception surfaced without retiring events (defensive).
    if (core.halted_exception() != Exception::kNone) {
      const Exception e = core.halted_exception();
      const FailureMode m = e == Exception::kITlbMiss  ? FailureMode::kItlb
                            : e == Exception::kDTlbMiss ? FailureMode::kDtlb
                                                        : FailureMode::kExcept;
      return finish(OutcomeOf(m), m, c);
    }

    // Deadlock/livelock detection.
    no_retire_cycles =
        core.RetiredThisCycle().empty() ? no_retire_cycles + 1 : 0;
    if (no_retire_cycles >= static_cast<std::uint64_t>(kLockedThresholdCycles))
      return finish(Outcome::kTerminated, FailureMode::kLocked, c);

    // Retirement-count-aligned architectural view comparison: catches silent
    // corruption of the architectural register file / RAT immediately, even
    // before a dependent use retires.
    const std::uint64_t k = core.RetiredTotal();
    if (const auto it = tl.count_to_cycle.find(k);
        it != tl.count_to_cycle.end()) {
      const std::size_t g = it->second;
      if (core.ArchViewHash() != tl.arch_hash[g])
        return finish(Outcome::kSdc, FailureMode::kRegfile, c);
      if (tl.sb_empty[g] && core.StoreBufferEmpty() &&
          (core.memory().ContentHash() ^ core.OutputHash()) != tl.mem_hash[g])
        return finish(Outcome::kSdc, FailureMode::kMem, c);
    }

    // Complete microarchitectural state match (every bit of the machine).
    if (core.StateHash() == tl.state_hash[gidx])
      return finish(Outcome::kMicroArchMatch, FailureMode::kNoFailure, c);
  }
  return finish(Outcome::kGrayArea, FailureMode::kNoFailure, win);
}

}  // namespace tfsim
