#include "inject/golden.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "arch/functional_sim.h"

namespace tfsim {

std::uint32_t GoldenTimeline::ValidInstrsAt(std::size_t cycle_index) const {
  if (cycle_index >= seq_range.size()) return 0;
  const auto [oldest, next] = seq_range[cycle_index];
  std::uint32_t n = 0;
  for (std::uint64_t s = oldest; s < next && s < seq_retired.size(); ++s)
    if (seq_retired[s]) ++n;
  return n;
}

std::shared_ptr<const GoldenRun> RecordGolden(const CoreConfig& cfg,
                                              const Program& program,
                                              const GoldenSpec& spec,
                                              const obs::ObsSinks* obs,
                                              const FastPathPlan* fastpath) {
  auto run = std::make_shared<GoldenRun>();
  run->cfg = cfg;
  run->program = program;
  run->spec = spec;

  Core core(cfg, program);
  FunctionalSim ref(program);
  core.tlb().SetLearning(true);
  core.AttachObs(obs);

  const std::uint64_t record_cycles =
      static_cast<std::uint64_t>(spec.points - 1) * spec.spacing +
      spec.window + spec.offset_max + spec.slack;
  GoldenTimeline& tl = run->timeline;
  tl.state_hash.reserve(record_cycles);

  // Trial fast path: track the first access to every word the campaign will
  // flip. The tracker observes the pipeline's own accesses (installed around
  // Cycle(); Core pauses it for checker/obs instrumentation) plus the
  // ArchViewHash reads below — the trial loop's continuous architectural
  // check reads the arch RAT and arch-mapped registers every cycle, so a
  // flip there is "accessed" even if the pipeline proper never touches it.
  // Everything else the trial loop consults (retire events, state/memory
  // hashes, store-buffer emptiness) either involves no registry reads
  // or cannot change a trial's classification while the machine still
  // matches golden outside the flipped words.
  std::shared_ptr<WordFirstAccessTracker> tracker;
  if (fastpath != nullptr) {
    tracker =
        std::make_shared<WordFirstAccessTracker>(core.registry().WordCount());
    for (const auto& [word, cycle] : fastpath->watches)
      tracker->Watch(word, cycle);
    tracker->Seal();
  }

  std::uint64_t max_retire_gap = 0;
  std::uint64_t gap = 0;

  auto step = [&](bool recording, std::uint64_t rel_cycle) {
    const bool track = recording && tracker != nullptr && !tracker->Done();
    if (track) {
      tracker->SetCycle(rel_cycle);
      core.registry().SetAccessTracker(tracker.get());
    }
    core.Cycle();
    if (core.halted_exception() != Exception::kNone || core.itlb_miss() ||
        core.exited()) {
      std::ostringstream os;
      os << "golden run failed at cycle " << core.stats().cycles << ": "
         << (core.exited() ? "program exited inside the window"
                           : ExceptionName(core.halted_exception()));
      throw std::runtime_error(os.str());
    }
    // Co-simulation: the pipeline's retire stream must equal the functional
    // simulator's execution instruction-for-instruction.
    for (const RetireEvent& ev : core.RetiredThisCycle()) {
      const RetireEvent want = ref.Step();
      if (!(ev == want)) {
        throw std::runtime_error("golden co-simulation mismatch:\n  core: " +
                                 ToString(ev) + "\n  ref : " + ToString(want));
      }
    }
    gap = core.RetiredThisCycle().empty() ? gap + 1 : 0;
    if (gap > max_retire_gap) max_retire_gap = gap;

    if (!recording) return;
    tl.state_hash.push_back(core.StateHash());
    // ArchViewHash runs with the tracker still installed: its reads mirror
    // the trial loop's continuous architectural check (see above). The
    // samples below are recorder-only instrumentation and stay untracked.
    tl.arch_hash.push_back(core.ArchViewHash());
    core.registry().SetAccessTracker(nullptr);
    tl.mem_hash.push_back(core.memory().ContentHash() ^ core.OutputHash());
    tl.sb_empty.push_back(core.StoreBufferEmpty() ? 1 : 0);
    tl.retired_total.push_back(core.RetiredTotal());
    tl.count_to_cycle.emplace(core.RetiredTotal(), rel_cycle);  // keeps first
    for (const RetireEvent& ev : core.RetiredThisCycle())
      tl.events.push_back(ev);
    tl.seq_range.emplace_back(core.OldestInflightSeq(), core.NextFetchSeq());
    tl.inflight.push_back(core.InFlight());
    for (std::uint64_t s : core.RetiredSeqsThisCycle()) {
      if (s >= tl.seq_retired.size()) tl.seq_retired.resize(s + 1024, false);
      tl.seq_retired[s] = true;
    }
  };

  for (std::uint64_t c = 0; c < spec.warmup; ++c) step(false, 0);
  tl.base_retired = core.RetiredTotal();

  std::size_t next_point = 0;
  for (std::uint64_t c = 0; c < record_cycles; ++c) {
    if (c % spec.spacing == 0 &&
        c / spec.spacing < static_cast<std::uint64_t>(spec.points))
      run->checkpoints.push_back(core.Save());
    // Injection-cycle delta snapshots, captured like checkpoints: before the
    // cycle executes. The base is the newest checkpoint at or before this
    // cycle, so it is always already saved (the offset-0 case diffs a
    // checkpoint against itself and stores an empty delta).
    if (fastpath != nullptr) {
      while (next_point < fastpath->snapshot_cycles.size() &&
             fastpath->snapshot_cycles[next_point] == c) {
        const std::size_t base = std::min(
            static_cast<std::size_t>(c / spec.spacing),
            run->checkpoints.size() - 1);
        run->fastpath.points.emplace(
            c, GoldenFastPath::Point{
                   base, core.SaveDelta(run->checkpoints[base])});
        ++next_point;
      }
    }
    step(true, c);
  }

  if (max_retire_gap >= static_cast<std::uint64_t>(kLockedThresholdCycles))
    throw std::runtime_error(
        "golden run stalled past the locked-detection threshold");

  if (fastpath != nullptr) {
    run->fastpath.enabled = true;
    run->fastpath.access = tracker;
  }
  run->tlb = core.tlb();
  run->tlb.SetLearning(false);
  run->stats = core.stats();
  core.FlushObsCounters();
  return run;
}

}  // namespace tfsim
