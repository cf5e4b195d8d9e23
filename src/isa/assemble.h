// Two-pass assembler for miniAlpha.
//
// Syntax (one statement per line; `;` or `#` start comments):
//   label:                         — define a label (code or data)
//   addq  r1, r2, r3               — R-format ALU
//   addqi r1, 42, r3               — I-format ALU (imm16, signed)
//   lda   r1, 100(r2)              — address arithmetic / constants
//   ldq   r1, 8(r2)   / stq ...    — memory
//   beq   r1, target  / br r31, t  — branches (label or numeric target)
//   jsr   r26, r4     / ret r31, r26
//   syscall
//   .text / .data                  — switch section
//   .org ADDR                      — set location counter
//   .word V ...  (64-bit)  .long V ... (32-bit)  .byte V ...
//   .space N                       — N zero bytes
//   .asciiz "str"                  — NUL-terminated string
//   .align N                       — align to N bytes
// Registers: r0..r31, or aliases zero(r31), sp(r30), ra(r26).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tfsim {

// Section bases used by the assembler (and by tools that reconstruct
// assembler-shaped images, e.g. analyze::DisassembleProgram and the
// soft::Harden transform).
inline constexpr std::uint64_t kAsmTextBase = 0x1000;
inline constexpr std::uint64_t kAsmDataBase = 0x40000;

// An assembled program image: byte chunks at absolute addresses plus the
// entry point (the `_start` label if present, else the first .text address).
struct Program {
  struct Chunk {
    std::uint64_t addr = 0;
    std::vector<std::uint8_t> bytes;
    bool operator==(const Chunk&) const = default;
  };
  std::vector<Chunk> chunks;
  std::uint64_t entry = 0;
  std::map<std::string, std::uint64_t> symbols;
  bool operator==(const Program&) const = default;
};

// Assembles source text. Throws std::runtime_error with a line-numbered
// message on any syntax error (assembly inputs are compiled into the binary,
// so errors are programming bugs, not runtime conditions).
Program Assemble(const std::string& source);

}  // namespace tfsim
