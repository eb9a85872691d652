//===- cfg/SaveRestore.cpp - Callee-saved save/restore detection ---------===//

#include "cfg/SaveRestore.h"

using namespace spike;

namespace {

/// Scans an entrance block for "stq Reg, Slot(sp)" executed before any
/// other def or use of Reg.  Returns the store address, or -1.
int64_t findSave(const Program &Prog, const BasicBlock &Block, unsigned Reg,
                 int32_t *SlotOut) {
  unsigned Sp = Prog.Conv.SpReg;
  for (uint64_t Address = Block.Begin; Address < Block.End; ++Address) {
    const Instruction Inst = Prog.inst(Address);
    if (Inst.Op == Opcode::Stq && Inst.Ra == Reg && Inst.Rb == Sp) {
      *SlotOut = Inst.Imm;
      return int64_t(Address);
    }
    if (Inst.defs().contains(Reg) || Inst.uses().contains(Reg))
      return -1;
  }
  return -1;
}

/// Scans an exit block for the last "ldq Reg, Slot(sp)" with no later
/// redefinition of Reg.  Returns the load address, or -1.
int64_t findRestore(const Program &Prog, const BasicBlock &Block,
                    unsigned Reg, int32_t Slot) {
  unsigned Sp = Prog.Conv.SpReg;
  int64_t Found = -1;
  for (uint64_t Address = Block.Begin; Address < Block.End; ++Address) {
    const Instruction Inst = Prog.inst(Address);
    if (Inst.Op == Opcode::Ldq && Inst.Rc == Reg && Inst.Rb == Sp &&
        Inst.Imm == Slot) {
      Found = int64_t(Address);
      continue;
    }
    if (Inst.defs().contains(Reg))
      Found = -1;
  }
  return Found;
}

} // namespace

SaveRestoreInfo spike::analyzeSaveRestore(const Program &Prog,
                                          const Routine &R) {
  SaveRestoreInfo Info;
  if (R.EntryBlocks.empty() || R.ExitBlocks.empty())
    return Info;

  for (unsigned Reg : Prog.Conv.CalleeSaved) {
    SavedRegInfo Detail;
    Detail.Reg = Reg;
    bool HaveSlot = false;
    bool Ok = true;

    for (uint32_t EntryBlock : R.EntryBlocks) {
      int32_t Slot = 0;
      int64_t SaveAddr =
          findSave(Prog, R.Blocks[EntryBlock], Reg, &Slot);
      if (SaveAddr < 0 || (HaveSlot && Slot != Detail.Slot)) {
        Ok = false;
        break;
      }
      Detail.Slot = Slot;
      HaveSlot = true;
      Detail.SaveAddrs.push_back(uint64_t(SaveAddr));
    }
    if (!Ok || !HaveSlot)
      continue;

    for (uint32_t ExitBlock : R.ExitBlocks) {
      int64_t RestoreAddr =
          findRestore(Prog, R.Blocks[ExitBlock], Reg, Detail.Slot);
      if (RestoreAddr < 0) {
        Ok = false;
        break;
      }
      Detail.RestoreAddrs.push_back(uint64_t(RestoreAddr));
    }
    if (!Ok)
      continue;

    Info.Saved.insert(Reg);
    Info.Details.push_back(std::move(Detail));
  }
  return Info;
}
