#include "isa/isa.h"

namespace tfsim {

const char* ExceptionName(Exception e) {
  switch (e) {
    case Exception::kNone: return "none";
    case Exception::kIllegalOpcode: return "illegal-opcode";
    case Exception::kUnaligned: return "unaligned";
    case Exception::kDivZero: return "div-zero";
    case Exception::kOverflow: return "overflow";
    case Exception::kITlbMiss: return "itlb-miss";
    case Exception::kDTlbMiss: return "dtlb-miss";
  }
  return "?";
}

std::uint32_t EncodeR(Op op, int ra, int rb, int rc) {
  return (static_cast<std::uint32_t>(op) << 26) |
         (static_cast<std::uint32_t>(ra & 31) << 21) |
         (static_cast<std::uint32_t>(rb & 31) << 16) |
         (static_cast<std::uint32_t>(rc & 31) << 11);
}

std::uint32_t EncodeI(Op op, int ra, int rc, std::int64_t imm16) {
  return (static_cast<std::uint32_t>(op) << 26) |
         (static_cast<std::uint32_t>(ra & 31) << 21) |
         (static_cast<std::uint32_t>(rc & 31) << 16) |
         (static_cast<std::uint32_t>(imm16) & 0xFFFF);
}

std::uint32_t EncodeM(Op op, int ra, int rb, std::int64_t disp16) {
  return (static_cast<std::uint32_t>(op) << 26) |
         (static_cast<std::uint32_t>(ra & 31) << 21) |
         (static_cast<std::uint32_t>(rb & 31) << 16) |
         (static_cast<std::uint32_t>(disp16) & 0xFFFF);
}

std::uint32_t EncodeB(Op op, int ra, std::int64_t disp21) {
  return (static_cast<std::uint32_t>(op) << 26) |
         (static_cast<std::uint32_t>(ra & 31) << 21) |
         (static_cast<std::uint32_t>(disp21) & 0x1FFFFF);
}

std::uint32_t EncodeJ(Op op, int ra, int rb) {
  return (static_cast<std::uint32_t>(op) << 26) |
         (static_cast<std::uint32_t>(ra & 31) << 21) |
         (static_cast<std::uint32_t>(rb & 31) << 16);
}

namespace {

std::int64_t Sext32(std::uint64_t v) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
}

}  // namespace

AluResult ExecuteAlu(const DecodedInst& d, std::uint64_t a, std::uint64_t b) {
  const std::int64_t sa = static_cast<std::int64_t>(a);
  const std::int64_t sb = static_cast<std::int64_t>(b);
  switch (d.op) {
    case Op::kAddq:
    case Op::kAddqi:
      return {a + b, Exception::kNone};
    case Op::kSubq:
    case Op::kSubqi:
      return {a - b, Exception::kNone};
    case Op::kMulq:
    case Op::kMulqi:
      return {a * b, Exception::kNone};
    case Op::kDivq:
      if (b == 0) return {0, Exception::kDivZero};
      if (sa == INT64_MIN && sb == -1) return {0, Exception::kOverflow};
      return {static_cast<std::uint64_t>(sa / sb), Exception::kNone};
    case Op::kRemq:
      if (b == 0) return {0, Exception::kDivZero};
      if (sa == INT64_MIN && sb == -1) return {0, Exception::kOverflow};
      return {static_cast<std::uint64_t>(sa % sb), Exception::kNone};
    case Op::kUmulh: {
      const unsigned __int128 p =
          static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
      return {static_cast<std::uint64_t>(p >> 64), Exception::kNone};
    }
    case Op::kAndq:
    case Op::kAndqi:
      return {a & b, Exception::kNone};
    case Op::kBisq:
    case Op::kBisqi:
      return {a | b, Exception::kNone};
    case Op::kXorq:
    case Op::kXorqi:
      return {a ^ b, Exception::kNone};
    case Op::kBicq:
      return {a & ~b, Exception::kNone};
    case Op::kSllq:
    case Op::kSllqi:
      return {a << (b & 63), Exception::kNone};
    case Op::kSrlq:
    case Op::kSrlqi:
      return {a >> (b & 63), Exception::kNone};
    case Op::kSraq:
    case Op::kSraqi:
      return {static_cast<std::uint64_t>(sa >> (b & 63)), Exception::kNone};
    case Op::kCmpeq:
    case Op::kCmpeqi:
      return {a == b ? 1ULL : 0ULL, Exception::kNone};
    case Op::kCmplt:
    case Op::kCmplti:
      return {sa < sb ? 1ULL : 0ULL, Exception::kNone};
    case Op::kCmple:
    case Op::kCmplei:
      return {sa <= sb ? 1ULL : 0ULL, Exception::kNone};
    case Op::kCmpult:
    case Op::kCmpulti:
      return {a < b ? 1ULL : 0ULL, Exception::kNone};
    case Op::kCmpule:
    case Op::kCmpulei:
      return {a <= b ? 1ULL : 0ULL, Exception::kNone};
    case Op::kAddl:
    case Op::kAddli:
      return {static_cast<std::uint64_t>(Sext32(a + b)), Exception::kNone};
    case Op::kSubl:
      return {static_cast<std::uint64_t>(Sext32(a - b)), Exception::kNone};
    case Op::kMull:
      return {static_cast<std::uint64_t>(Sext32(a * b)), Exception::kNone};
    case Op::kSextb:
      return {static_cast<std::uint64_t>(static_cast<std::int8_t>(b)),
              Exception::kNone};
    case Op::kSextl:
      return {static_cast<std::uint64_t>(Sext32(b)), Exception::kNone};
    case Op::kAddv: {
      std::int64_t sum = 0;
      if (__builtin_add_overflow(sa, sb, &sum))
        return {0, Exception::kOverflow};
      return {static_cast<std::uint64_t>(sum), Exception::kNone};
    }
    case Op::kSubv: {
      // A subtrahend of INT64_MIN traps whatever the minuend: the model
      // checks a - b as a + (-b), and -INT64_MIN does not exist.
      std::int64_t diff = 0;
      if (sb == INT64_MIN || __builtin_sub_overflow(sa, sb, &diff))
        return {0, Exception::kOverflow};
      return {static_cast<std::uint64_t>(diff), Exception::kNone};
    }
    // LDA/LDAH compute like adds so that the AGU-free functional path and
    // any corrupted routing still have defined behaviour.
    case Op::kLda:
      return {a + b, Exception::kNone};
    case Op::kLdah:
      return {a + (b << 16), Exception::kNone};
    default:
      return {0, Exception::kIllegalOpcode};
  }
}

bool BranchTaken(Op op, std::uint64_t ra_value) {
  const std::int64_t v = static_cast<std::int64_t>(ra_value);
  switch (op) {
    case Op::kBr:
    case Op::kBsr:
      return true;
    case Op::kBeq: return v == 0;
    case Op::kBne: return v != 0;
    case Op::kBlt: return v < 0;
    case Op::kBle: return v <= 0;
    case Op::kBgt: return v > 0;
    case Op::kBge: return v >= 0;
    default: return false;
  }
}

int ComplexLatency(Op op) {
  switch (op) {
    case Op::kMulq:
    case Op::kMulqi:
    case Op::kMull:
      return 3;
    case Op::kUmulh:
      return 4;
    case Op::kDivq:
    case Op::kRemq:
      return 5;
    default:
      return 2;  // anything else routed to the complex ALU
  }
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kIllegal: return "illegal";
    case Op::kLda: return "lda";
    case Op::kLdah: return "ldah";
    case Op::kSyscall: return "syscall";
    case Op::kAddq: return "addq";
    case Op::kSubq: return "subq";
    case Op::kMulq: return "mulq";
    case Op::kDivq: return "divq";
    case Op::kAndq: return "andq";
    case Op::kBisq: return "bisq";
    case Op::kXorq: return "xorq";
    case Op::kBicq: return "bicq";
    case Op::kSllq: return "sllq";
    case Op::kSrlq: return "srlq";
    case Op::kSraq: return "sraq";
    case Op::kCmpeq: return "cmpeq";
    case Op::kCmplt: return "cmplt";
    case Op::kCmple: return "cmple";
    case Op::kCmpult: return "cmpult";
    case Op::kCmpule: return "cmpule";
    case Op::kAddl: return "addl";
    case Op::kSubl: return "subl";
    case Op::kMull: return "mull";
    case Op::kSextb: return "sextb";
    case Op::kSextl: return "sextl";
    case Op::kAddv: return "addv";
    case Op::kSubv: return "subv";
    case Op::kRemq: return "remq";
    case Op::kUmulh: return "umulh";
    case Op::kJmp: return "jmp";
    case Op::kJsr: return "jsr";
    case Op::kRet: return "ret";
    case Op::kAddqi: return "addqi";
    case Op::kSubqi: return "subqi";
    case Op::kMulqi: return "mulqi";
    case Op::kAndqi: return "andqi";
    case Op::kBisqi: return "bisqi";
    case Op::kXorqi: return "xorqi";
    case Op::kSllqi: return "sllqi";
    case Op::kSrlqi: return "srlqi";
    case Op::kSraqi: return "sraqi";
    case Op::kCmpeqi: return "cmpeqi";
    case Op::kCmplti: return "cmplti";
    case Op::kCmplei: return "cmplei";
    case Op::kCmpulti: return "cmpulti";
    case Op::kCmpulei: return "cmpulei";
    case Op::kAddli: return "addli";
    case Op::kBr: return "br";
    case Op::kBsr: return "bsr";
    case Op::kBeq: return "beq";
    case Op::kBne: return "bne";
    case Op::kBlt: return "blt";
    case Op::kBle: return "ble";
    case Op::kBgt: return "bgt";
    case Op::kBge: return "bge";
    case Op::kLdq: return "ldq";
    case Op::kLdl: return "ldl";
    case Op::kLdbu: return "ldbu";
    case Op::kStq: return "stq";
    case Op::kStl: return "stl";
    case Op::kStb: return "stb";
  }
  return "?";
}

}  // namespace tfsim
