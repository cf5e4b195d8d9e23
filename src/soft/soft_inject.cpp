#include "soft/soft_inject.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "arch/functional_sim.h"
#include "inject/cache.h"
#include "soft/harden.h"
#include "util/fs.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace tfsim {
namespace {

// Is this dynamic instruction an eligible fault target for the model?
bool Eligible(SoftFaultModel model, const DecodedInst& d) {
  switch (model) {
    case SoftFaultModel::kRegBit32:
    case SoftFaultModel::kRegBit64:
    case SoftFaultModel::kRegRandom:
      return d.dst != kNoReg;  // instructions that write a register
    case SoftFaultModel::kInsnBit:
    case SoftFaultModel::kNop:
      return true;
    case SoftFaultModel::kBranchFlip:
      return d.cls == InsnClass::kCondBranch;
  }
  return false;
}

// Inverted conditional-branch opcode (beq<->bne, blt<->bge, ble<->bgt).
Op InvertBranch(Op op) {
  switch (op) {
    case Op::kBeq: return Op::kBne;
    case Op::kBne: return Op::kBeq;
    case Op::kBlt: return Op::kBge;
    case Op::kBge: return Op::kBlt;
    case Op::kBle: return Op::kBgt;
    case Op::kBgt: return Op::kBle;
    default: return op;
  }
}

// The reference records a checkpoint every this many instructions.
constexpr std::uint64_t kCheckpointInterval = 1ULL << 16;

// The fault-free machine before dynamic instruction `insns`. A trial whose
// target lies past it starts here instead of at instruction 0.
struct Checkpoint {
  std::uint64_t insns = 0;
  std::size_t syscalls = 0;  // syscall_hashes entries recorded before it
  std::array<std::uint64_t, kNumSoftFaultModels> eligible{};
  std::array<std::uint64_t, kNumArchRegs> regs{};
  std::uint64_t pc = 0;
  // Output is append-only, so the reference's output up to this length.
  std::size_t output_len = 0;
  // Memory as Memory::DiffWords against the freshly loaded program image.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mem;
};

// Reference execution record.
struct Reference {
  std::vector<std::uint32_t> pc_trace;           // pc per dynamic insn
  std::vector<std::uint64_t> syscall_hashes;     // state hash before each
  std::vector<std::uint8_t> output;
  std::vector<Checkpoint> checkpoints;           // the first at insn 0
  std::uint64_t total_insns = 0;
  std::array<std::uint64_t, kNumSoftFaultModels> eligible{};
};

Reference RunReference(const Program& program, std::uint64_t max_insns) {
  Reference ref;
  ArchState image;
  LoadProgram(program, image);
  FunctionalSim sim(program);
  while (sim.Running() && ref.total_insns < max_insns) {
    const std::uint64_t pc = sim.state().pc;
    if (pc > UINT32_MAX)
      throw std::runtime_error("soft reference: pc does not fit 32 bits");
    if (ref.total_insns % kCheckpointInterval == 0)
      ref.checkpoints.push_back({ref.total_insns, ref.syscall_hashes.size(),
                                 ref.eligible, sim.state().regs, pc,
                                 sim.state().output.size(),
                                 sim.state().mem.DiffWords(image.mem)});
    const DecodedInst d =
        Decode(static_cast<std::uint32_t>(sim.state().mem.Read(pc, 4)));
    if (d.cls == InsnClass::kSyscall)
      ref.syscall_hashes.push_back(sim.state().Hash());
    for (int m = 0; m < kNumSoftFaultModels; ++m)
      if (Eligible(static_cast<SoftFaultModel>(m), d)) ++ref.eligible[m];
    ref.pc_trace.push_back(static_cast<std::uint32_t>(pc));
    sim.Step();
    ++ref.total_insns;
  }
  ref.output = sim.state().output;
  return ref;
}

// The fault-free reference of `program`, memoized per thread for the last
// program seen. The key is the whole program, compared exactly: programs
// are rebuilt at the same address from campaign to campaign, and two
// builds that differ in one byte (a workload at two iteration counts) must
// never share a reference. The old reference is freed before the new one
// is recorded, so a thread holds one at a time.
const Reference& ReferenceFor(const Program& program) {
  static thread_local struct {
    std::optional<Program> program;
    Reference ref;
  } memo;
  if (!memo.program || *memo.program != program) {
    memo.program.reset();
    memo.ref = Reference{};
    memo.ref = RunReference(program, 1ULL << 40);
    memo.program = program;
  }
  return memo.ref;
}

}  // namespace

const char* SoftFaultModelName(SoftFaultModel m) {
  switch (m) {
    case SoftFaultModel::kRegBit32: return "reg-bit-32";
    case SoftFaultModel::kRegBit64: return "reg-bit-64";
    case SoftFaultModel::kRegRandom: return "reg-random-64";
    case SoftFaultModel::kInsnBit: return "insn-bit";
    case SoftFaultModel::kNop: return "to-nop";
    case SoftFaultModel::kBranchFlip: return "branch-flip";
  }
  return "?";
}

const char* SoftOutcomeName(SoftOutcome o) {
  switch (o) {
    case SoftOutcome::kException: return "Exception";
    case SoftOutcome::kStateOk: return "State OK";
    case SoftOutcome::kOutputOk: return "Output OK";
    case SoftOutcome::kOutputBad: return "Output Bad";
  }
  return "?";
}

SoftTrialResult RunSoftTrial(const Program& program, SoftFaultModel model,
                             std::uint64_t target_insn, std::uint64_t rng_seed,
                             std::uint64_t max_insns) {
  const Reference& ref = ReferenceFor(program);
  SoftTrialResult result;
  Rng rng(rng_seed);

  // Start from the last checkpoint before both the target and the runaway
  // bound. The skipped prefix is the reference's own fault-free run, so it
  // would set no control-flow divergence and reach no post-injection state
  // check, and the TLB it would have filled only learns during soft runs.
  const int m = static_cast<int>(model);
  const Checkpoint* start = &ref.checkpoints.front();
  for (const Checkpoint& c : ref.checkpoints) {
    if (c.eligible[m] > target_insn || c.insns >= max_insns) break;
    start = &c;
  }
  FunctionalSim sim(program);
  for (const auto& [addr, value] : start->mem)
    sim.state().mem.Write(addr, value, 8);
  sim.state().regs = start->regs;
  sim.state().pc = start->pc;
  sim.state().output.assign(ref.output.begin(),
                            ref.output.begin() + static_cast<std::ptrdiff_t>(
                                                     start->output_len));

  std::uint64_t eligible_seen = start->eligible[m];
  std::uint64_t insns = start->insns;
  std::size_t syscalls_seen = start->syscalls;
  bool injected = false;

  while (sim.Running() && insns < max_insns) {
    const std::uint64_t pc = sim.state().pc;
    const std::uint32_t word =
        static_cast<std::uint32_t>(sim.state().mem.Read(pc, 4));
    const DecodedInst d = Decode(word);

    // Control-flow divergence vs the reference at the same dynamic index.
    if (insns < ref.pc_trace.size() && ref.pc_trace[insns] != pc)
      result.control_flow_diverged = true;

    // State-convergence check at syscall boundaries (Section 5: "prior to a
    // system call"). Exact state equality implies the remainder of the run
    // is identical, so the fault has been fully masked.
    if (injected && d.cls == InsnClass::kSyscall &&
        syscalls_seen < ref.syscall_hashes.size() &&
        sim.state().Hash() == ref.syscall_hashes[syscalls_seen]) {
      result.outcome = SoftOutcome::kStateOk;
      result.insns_executed = insns;
      return result;
    }
    if (d.cls == InsnClass::kSyscall) ++syscalls_seen;

    const bool is_target =
        !injected && Eligible(model, d) && eligible_seen++ == target_insn;
    if (!is_target) {
      sim.Step();
      ++insns;
      continue;
    }
    injected = true;

    switch (model) {
      case SoftFaultModel::kRegBit32:
      case SoftFaultModel::kRegBit64:
      case SoftFaultModel::kRegRandom: {
        sim.Step();
        ++insns;
        if (d.dst != kNoReg && sim.pending_exception() == Exception::kNone) {
          std::uint64_t v = sim.state().Reg(d.dst);
          if (model == SoftFaultModel::kRegRandom) v = rng.Next();
          else if (model == SoftFaultModel::kRegBit32) v ^= 1ULL << rng.NextBelow(32);
          else v ^= 1ULL << rng.NextBelow(64);
          sim.state().SetReg(d.dst, v);
        }
        break;
      }
      case SoftFaultModel::kInsnBit:
      case SoftFaultModel::kNop:
      case SoftFaultModel::kBranchFlip: {
        // Transiently replace the instruction word for one execution.
        std::uint32_t faulty = word;
        if (model == SoftFaultModel::kInsnBit) {
          faulty = word ^ (1u << rng.NextBelow(32));
        } else if (model == SoftFaultModel::kNop) {
          faulty = EncodeR(Op::kBisq, kZeroReg, kZeroReg, kZeroReg);
        } else {
          faulty = (word & 0x03FFFFFF) |
                   (static_cast<std::uint32_t>(InvertBranch(d.op)) << 26);
        }
        sim.state().mem.Write(pc, faulty, 4);
        sim.Step();
        sim.state().mem.Write(pc, word, 4);  // the fault is transient
        ++insns;
        break;
      }
    }
  }

  result.insns_executed = insns;
  if (sim.pending_exception() != Exception::kNone || insns >= max_insns) {
    // Exceptions are noisy failures; runaway executions are classified the
    // same way (the paper's four categories have no separate hang bucket).
    result.outcome = SoftOutcome::kException;
  } else if (sim.state().output == ref.output) {
    result.outcome = SoftOutcome::kOutputOk;
  } else {
    result.outcome = SoftOutcome::kOutputBad;
  }
  return result;
}

SoftCampaignResult RunSoftCampaign(const SoftCampaignSpec& spec,
                                   bool verbose) {
  SoftCampaignResult result;
  result.spec = spec;

  // On-disk cache (same directory as the pipeline campaigns). The added
  // constant is the soft results' version: 4 since the key hashes the
  // runaway bound, because an entry written before could hold trials run
  // under another `max_insn_factor`.
  std::uint64_t key = Mix64(0x50F7 + 4);
  for (char c : spec.workload) key = Mix64(key ^ static_cast<std::uint64_t>(c));
  key = Mix64(key ^ static_cast<std::uint64_t>(spec.model));
  key = Mix64(key ^ spec.iters);
  key = Mix64(key ^ static_cast<std::uint64_t>(spec.trials));
  key = Mix64(key ^ spec.seed);
  key = Mix64(key ^ spec.max_insn_factor);
  std::ostringstream name;
  name << "soft_" << spec.workload << "_" << SoftFaultModelName(spec.model)
       << "_" << std::hex << key << ".txt";
  const std::filesystem::path path =
      std::filesystem::path(CacheDir()) / name.str();
  if (std::ifstream in(path); in) {
    std::string magic;
    std::getline(in, magic);
    if (magic == "tfi-soft v1") {
      in >> result.trials;
      for (auto& v : result.by_outcome) in >> v;
      in >> result.state_ok_with_divergence;
      if (in) return result;
    }
    result = SoftCampaignResult{};
    result.spec = spec;
  }

  // Harden-suffixed names ("gzip+sw", ...) run the software-hardened
  // variant; the cache key above hashes the full workload string, so the
  // variants are cached apart from their bases for free.
  std::string base;
  const auto hmode = ParseHardenSuffix(spec.workload, &base);
  Program program = BuildWorkload(WorkloadByName(base), spec.iters,
                                  /*emit_each_iteration=*/true);
  if (hmode) program = Harden(program, *hmode).program;
  const Reference& ref = ReferenceFor(program);
  const std::uint64_t max_insns = ref.total_insns * spec.max_insn_factor;
  const std::uint64_t eligible = ref.eligible[static_cast<int>(spec.model)];

  Rng rng(spec.seed);
  for (int t = 0; t < spec.trials; ++t) {
    const std::uint64_t target = rng.NextBelow(eligible);
    const SoftTrialResult r =
        RunSoftTrial(program, spec.model, target, rng.Next(), max_insns);
    result.by_outcome[static_cast<int>(r.outcome)]++;
    if (r.outcome == SoftOutcome::kStateOk && r.control_flow_diverged)
      ++result.state_ok_with_divergence;
    ++result.trials;
    if (verbose && (t + 1) % 100 == 0)
      std::fprintf(stderr, "[soft %s/%s] %d/%d trials\n",
                   spec.workload.c_str(), SoftFaultModelName(spec.model),
                   t + 1, spec.trials);
  }

  // Written whole or not at all: a torn entry could parse short (a last
  // count of 10 read back as 1).
  std::ostringstream out;
  out << "tfi-soft v1\n" << result.trials << '\n';
  for (auto v : result.by_outcome) out << v << ' ';
  out << '\n' << result.state_ok_with_divergence << '\n';
  std::error_code ec;
  std::filesystem::create_directories(CacheDir(), ec);
  if (std::string error; !AtomicWriteFile(path, out.str(), &error))
    std::fprintf(stderr, "[cache] store failed: %s\n", error.c_str());
  return result;
}

}  // namespace tfsim
