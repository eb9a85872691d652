//===- opt/SpillRemoval.cpp - Remove spills around calls ------------------===//

#include "opt/SpillRemoval.h"

#include "isa/Encoding.h"
#include "isa/StackRef.h"

using namespace spike;

namespace {

/// Returns true if \p Inst reads or writes the stack slot \p Slot, or
/// redefines the stack pointer (which changes what the slot means).
bool touchesSlot(const Instruction &Inst, unsigned Sp, int32_t Slot) {
  StackRef Ref = stackRefOf(Inst, Sp);
  if (Ref.Kind == StackRefKind::Slot && Ref.Offset == Slot)
    return true;
  int64_t Delta;
  return spEffectOf(Inst, Sp, Delta) != SpEffect::None;
}

} // namespace

SpillRemovalStats
spike::removeCallSpills(Image &Img, const Program &Prog,
                        const InterprocSummaries &Summaries) {
  SpillRemovalStats Stats;
  unsigned Sp = Prog.Conv.SpReg;
  uint64_t NopWord = encodeInstruction(inst::nop());

  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    // Quarantined routines have no call blocks by construction; keep the
    // no-touching-quarantined-bytes invariant explicit regardless.
    if (R.Quarantined)
      continue;
    for (uint32_t CallBlock : R.CallBlocks) {
      const BasicBlock &Block = R.Blocks[CallBlock];
      if (R.succs(CallBlock).size() != 1)
        continue;
      uint32_t ReturnBlock = R.succs(CallBlock)[0];
      if (R.preds(ReturnBlock).size() != 1)
        continue;

      RegSet Killed = Summaries.callKilled(Prog, RoutineIndex, CallBlock);

      // Find the latest spill store "stq Rt, k(sp)" in the call block
      // with Rt preserved by the call and untouched until the call.
      int64_t StoreAddr = -1;
      unsigned SpillReg = 0;
      int32_t Slot = 0;
      for (uint64_t Address = Block.Begin; Address + 1 < Block.End;
           ++Address) {
        StackRef Ref = stackRefOf(Prog.inst(Address), Sp);
        if (Ref.Kind == StackRefKind::Slot && Ref.IsStore &&
            Ref.ValueReg != Sp && !Killed.contains(Ref.ValueReg)) {
          StoreAddr = int64_t(Address);
          SpillReg = Ref.ValueReg;
          Slot = Ref.Offset;
        }
      }
      if (StoreAddr < 0)
        continue;

      // Rt and the slot must be untouched between the store and the call.
      bool Clobbered = false;
      for (uint64_t Address = uint64_t(StoreAddr) + 1;
           Address + 1 < Block.End && !Clobbered; ++Address) {
        const Instruction Inst = Prog.inst(Address);
        Clobbered = Inst.defs().contains(SpillReg) ||
                    touchesSlot(Inst, Sp, Slot);
      }
      if (Clobbered)
        continue;

      // Find the reload at the return point.
      const BasicBlock &Return = R.Blocks[ReturnBlock];
      int64_t LoadAddr = -1;
      for (uint64_t Address = Return.Begin; Address < Return.End;
           ++Address) {
        const Instruction Inst = Prog.inst(Address);
        StackRef Ref = stackRefOf(Inst, Sp);
        if (Ref.Kind == StackRefKind::Slot && !Ref.IsStore &&
            Ref.Offset == Slot && Ref.ValueReg == SpillReg) {
          LoadAddr = int64_t(Address);
          break;
        }
        if (Inst.defs().contains(SpillReg) || touchesSlot(Inst, Sp, Slot))
          break;
      }
      if (LoadAddr < 0)
        continue;

      // The slot must have no other readers anywhere in the routine:
      // deleting the store must not change what any other load sees.
      bool SlotSharedElsewhere = false;
      for (uint64_t Address = R.Begin;
           Address < R.End && !SlotSharedElsewhere; ++Address) {
        if (int64_t(Address) == StoreAddr || int64_t(Address) == LoadAddr)
          continue;
        StackRef Ref = stackRefOf(Prog.inst(Address), Sp);
        SlotSharedElsewhere =
            Ref.Kind == StackRefKind::Slot && Ref.Offset == Slot;
      }
      if (SlotSharedElsewhere)
        continue;

      Img.Code[uint64_t(StoreAddr)] = NopWord;
      Img.Code[uint64_t(LoadAddr)] = NopWord;
      ++Stats.RemovedPairs;
      Stats.DeletedAddrs.push_back(uint64_t(StoreAddr));
      Stats.DeletedAddrs.push_back(uint64_t(LoadAddr));
    }
  }
  return Stats;
}
