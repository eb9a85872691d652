//===- isa/Encoding.h - Instruction word encode/decode --------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary encoding of the synthetic ISA.
///
/// Every instruction occupies one fixed-size 64-bit word:
///
///   bits 63..56  opcode
///   bits 55..48  ra
///   bits 47..40  rb
///   bits 39..32  rc
///   bits 31..0   imm (two's-complement)
///
/// A fixed width keeps "instruction address" and "code word index"
/// synonymous, which mirrors the fixed 32-bit Alpha encoding the paper's
/// binaries used (we need 64 bits because call targets are absolute).
/// The decoder validates opcodes and register fields so that loading a
/// corrupted image fails cleanly instead of producing garbage analysis.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_ISA_ENCODING_H
#define SPIKE_ISA_ENCODING_H

#include "isa/Instruction.h"

#include <cstdint>
#include <optional>

namespace spike {

/// Encodes \p Inst into a 64-bit code word.
uint64_t encodeInstruction(const Instruction &Inst);

/// Decodes \p Word.  Returns std::nullopt if the opcode is unknown or a
/// register field is out of range.  Inline: the analyses decode the
/// image's words on every read (Program::inst).
inline std::optional<Instruction> decodeInstruction(uint64_t Word) {
  Instruction Inst;
  unsigned Op = unsigned((Word >> 56) & 0xff);
  if (Op >= NumOpcodes)
    return std::nullopt;
  Inst.Op = Opcode(Op);
  Inst.Ra = uint8_t((Word >> 48) & 0xff);
  Inst.Rb = uint8_t((Word >> 40) & 0xff);
  Inst.Rc = uint8_t((Word >> 32) & 0xff);
  Inst.Imm = int32_t(uint32_t(Word & 0xffffffff));
  if (Inst.Ra >= NumIntRegs || Inst.Rb >= NumIntRegs || Inst.Rc >= NumIntRegs)
    return std::nullopt;
  return Inst;
}

} // namespace spike

#endif // SPIKE_ISA_ENCODING_H
