#include "check/progfuzz.h"

#include <sstream>

#include "util/rng.h"

namespace tfsim::check {
namespace {

// Register convention (matches the hand-written workloads): r1..r7 working
// values, r8 scratch (addresses, branch conditions, inner counters), r9
// outer loop counter, r10 buffer base. The buffer is 288 bytes, so every
// masked base (<= 248 for 8-byte, <= 252 for 4-byte, <= 255 for byte) plus
// the largest generated displacement stays inside it.
constexpr const char* kMask8 = "248";
constexpr const char* kMask4 = "252";
constexpr const char* kMask1 = "255";

const char* const kAluR[] = {"addq",  "subq",  "andq",   "bisq", "xorq",
                             "bicq",  "cmpeq", "cmplt",  "cmpule", "addl",
                             "subl",  "sextb", "mulq",   "umulh", "mull",
                             "sllq",  "srlq",  "sraq"};
const char* const kAluI[] = {"addqi", "subqi", "andqi", "bisqi", "xorqi",
                             "mulqi", "cmpeqi", "cmplti", "addli"};
const char* const kCondBr[] = {"beq", "bne", "bgt", "blt", "bge", "ble"};

struct Gen {
  Rng& rng;
  std::ostringstream s;
  const std::string lbl;  // per-block label prefix, keeps labels unique
  int next_label = 0;

  int R() { return 1 + static_cast<int>(rng.NextBelow(7)); }  // r1..r7

  void AluImm() {
    s << "  " << kAluI[rng.NextBelow(std::size(kAluI))] << " r" << R() << ", "
      << rng.NextRange(-1000, 1000) << ", r" << R() << "\n";
  }
  void AluReg() {
    s << "  " << kAluR[rng.NextBelow(std::size(kAluR))] << " r" << R()
      << ", r" << R() << ", r" << R() << "\n";
  }
  void Shift() {
    const char* const ops[] = {"sllqi", "srlqi", "sraqi"};
    s << "  " << ops[rng.NextBelow(3)] << " r" << R() << ", "
      << rng.NextBelow(63) << ", r" << R() << "\n";
  }
  // Computes a masked, in-buffer address into r8.
  void Addr(const char* mask) {
    s << "  andqi r" << R() << ", " << mask << ", r8\n";
    s << "  addq r10, r8, r8\n";
  }
  void StoreLoad(int size) {
    const char* st = size == 1 ? "stb" : size == 4 ? "stl" : "stq";
    const char* ld = size == 1 ? "ldbu" : size == 4 ? "ldl" : "ldq";
    Addr(size == 1 ? kMask1 : size == 4 ? kMask4 : kMask8);
    s << "  " << st << " r" << R() << ", 0(r8)\n";
    // Sometimes interleave ALU work so the load doesn't always forward.
    if (rng.NextBelow(2)) AluReg();
    s << "  " << ld << " r" << R() << ", 0(r8)\n";
  }
  // Back-to-back store burst at stride-separated 8-aligned offsets.
  void StoreBurst() {
    Addr(kMask8);
    const int n = 2 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < n; ++i)
      s << "  stq r" << R() << ", " << 8 * (i % 4) << "(r8)\n";
    s << "  ldq r" << R() << ", " << 8 * rng.NextBelow(4) << "(r8)\n";
  }
  // Mixed-width traffic over one 8-byte word: byte/word stores into a
  // quadword followed by wider/narrower reads (sub-word forwarding corners).
  void MixedWidth() {
    Addr(kMask8);
    s << "  stq r" << R() << ", 0(r8)\n";
    if (rng.NextBelow(2)) s << "  stb r" << R() << ", " << rng.NextBelow(8)
                            << "(r8)\n";
    if (rng.NextBelow(2)) s << "  stl r" << R() << ", "
                            << 4 * rng.NextBelow(2) << "(r8)\n";
    s << "  ldq r" << R() << ", 0(r8)\n";
    s << "  ldbu r" << R() << ", " << rng.NextBelow(8) << "(r8)\n";
    s << "  ldl r" << R() << ", " << 4 * rng.NextBelow(2) << "(r8)\n";
  }
  // Data-dependent forward branch over 1-3 instructions.
  void FwdBranch() {
    const std::string l = lbl + std::to_string(next_label++);
    s << "  andqi r" << R() << ", " << (1 + rng.NextBelow(7)) << ", r8\n";
    s << "  " << kCondBr[rng.NextBelow(std::size(kCondBr))] << " r8, " << l
      << "\n";
    const int skip = 1 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < skip; ++i) rng.NextBelow(2) ? AluImm() : AluReg();
    s << l << ":\n";
  }
  // Bounded inner loop: always terminates (counted down in r8).
  void InnerLoop() {
    const std::string l = lbl + std::to_string(next_label++);
    s << "  li r8, " << 1 + rng.NextBelow(4) << "\n";
    s << l << ":\n";
    rng.NextBelow(2) ? AluReg() : AluImm();
    s << "  subqi r8, 1, r8\n";
    s << "  bgt r8, " << l << "\n";
  }
};

}  // namespace

const char* FuzzShapeName(FuzzShape shape) {
  switch (shape) {
    case FuzzShape::kMixed: return "mixed";
    case FuzzShape::kAluDense: return "alu";
    case FuzzShape::kStoreHeavy: return "store";
    case FuzzShape::kBranchErratic: return "branch";
    case FuzzShape::kMemWidths: return "mem";
  }
  return "?";
}

std::optional<FuzzShape> FuzzShapeFromName(std::string_view name) {
  for (const FuzzShape sh : AllFuzzShapes())
    if (name == FuzzShapeName(sh)) return sh;
  return std::nullopt;
}

std::vector<FuzzShape> AllFuzzShapes() {
  return {FuzzShape::kMixed, FuzzShape::kAluDense, FuzzShape::kStoreHeavy,
          FuzzShape::kBranchErratic, FuzzShape::kMemWidths};
}

std::string FuzzProgram::Source() const { return Source({}); }

std::string FuzzProgram::Source(const std::vector<bool>& enabled) const {
  std::string out = prologue;
  for (std::size_t i = 0; i < blocks.size(); ++i)
    if (i >= enabled.size() || enabled[i]) out += blocks[i];
  out += epilogue;
  return out;
}

FuzzProgram GenerateFuzzProgram(std::uint64_t seed, FuzzShape shape) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(shape) << 56));
  FuzzProgram p;

  {
    std::ostringstream s;
    s << "_start:\n";
    s << "  li r9, " << 150 + rng.NextBelow(150) << "\n";
    s << "  la r10, buf\n";
    for (int r = 1; r <= 8; ++r)
      s << "  li r" << r << ", " << rng.NextBelow(32768) << "\n";
    s << "outer:\n";
    p.prologue = s.str();
  }

  const int nblocks = 10 + static_cast<int>(rng.NextBelow(8));
  for (int b = 0; b < nblocks; ++b) {
    // Appended, not "b" + ...: GCC 12 at -O3 raises a false -Wrestrict there.
    Gen g{rng, {}, (std::string("b") += std::to_string(b)) += '_', 0};
    // Pick a block flavor, biased by the requested shape. One roll in four
    // is an off-shape block so even specialized suites keep some mixing.
    const bool off_shape = rng.NextBelow(4) == 0;
    const FuzzShape eff = off_shape ? FuzzShape::kMixed : shape;
    const int items = 2 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < items; ++i) {
      switch (eff) {
        case FuzzShape::kAluDense:
          switch (rng.NextBelow(6)) {
            case 0: g.Shift(); break;
            case 1: g.AluImm(); break;
            default: g.AluReg(); break;
          }
          break;
        case FuzzShape::kStoreHeavy:
          switch (rng.NextBelow(4)) {
            case 0: g.StoreBurst(); break;
            case 1: g.AluReg(); break;
            default: g.StoreLoad(8); break;
          }
          break;
        case FuzzShape::kBranchErratic:
          switch (rng.NextBelow(4)) {
            case 0: g.InnerLoop(); break;
            case 1: g.AluReg(); break;
            default: g.FwdBranch(); break;
          }
          break;
        case FuzzShape::kMemWidths:
          switch (rng.NextBelow(4)) {
            case 0: g.StoreLoad(1); break;
            case 1: g.StoreLoad(4); break;
            default: g.MixedWidth(); break;
          }
          break;
        case FuzzShape::kMixed:
          switch (rng.NextBelow(8)) {
            case 0: g.StoreLoad(1 << (3 * rng.NextBelow(2))); break;
            case 1: g.Shift(); break;
            case 2: g.FwdBranch(); break;
            case 3: g.AluImm(); break;
            case 4: g.MixedWidth(); break;
            case 5: g.InnerLoop(); break;
            default: g.AluReg(); break;
          }
          break;
      }
    }
    p.blocks.push_back(g.s.str());
  }

  p.epilogue =
      "  subqi r9, 1, r9\n"
      "  bgt r9, outer\n"
      "hang: br hang\n"
      // 288 bytes: a 248-masked base plus the largest burst offset (24) plus
      // an 8-byte access still lands inside the buffer.
      ".data\n.align 8\nbuf: .space 288\n";
  return p;
}

}  // namespace tfsim::check
