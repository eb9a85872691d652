//===- isa/Encoding.cpp - Instruction word encode/decode -----------------===//

#include "isa/Encoding.h"

using namespace spike;

uint64_t spike::encodeInstruction(const Instruction &Inst) {
  uint64_t Word = 0;
  Word |= uint64_t(uint8_t(Inst.Op)) << 56;
  Word |= uint64_t(Inst.Ra) << 48;
  Word |= uint64_t(Inst.Rb) << 40;
  Word |= uint64_t(Inst.Rc) << 32;
  Word |= uint64_t(uint32_t(Inst.Imm));
  return Word;
}
