//===- slice/DeadStore.cpp - Interprocedural dead stack stores ------------===//

#include "slice/DeadStore.h"

#include "isa/StackRef.h"

#include <algorithm>

using namespace spike;

std::vector<DeadStoreCandidate>
spike::findDeadStackStores(const Program &Prog,
                           const SlotFlowResult &Flow) {
  std::vector<DeadStoreCandidate> Candidates;
  if (Flow.GlobalEscape)
    return Candidates;
  unsigned Sp = Prog.Conv.SpReg;

  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    const RoutineSlotFacts &F = Flow.Routines[RoutineIndex];
    if (F.Opaque)
      continue;
    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex) {
      if (F.DeltaIn[BlockIndex] == UnknownDelta)
        continue; // Unreachable: leave the bytes alone.
      const BasicBlock &Block = R.Blocks[BlockIndex];

      // Re-decode the block's slot accesses in entry coordinates (the
      // same walk the solver's prep pass makes).
      struct Access {
        uint64_t Address;
        int64_t Offset;
        int32_t SpOffset;
        bool IsStore;
      };
      std::vector<Access> Ops;
      int64_t Delta = F.DeltaIn[BlockIndex];
      for (uint64_t Address = Block.Begin; Address < Block.End;
           ++Address) {
        const Instruction Inst = Prog.inst(Address);
        int64_t Adjust = 0;
        if (spEffectOf(Inst, Sp, Adjust) == SpEffect::Adjust) {
          Delta += Adjust;
          continue;
        }
        StackRef Ref = stackRefOf(Inst, Sp);
        if (Ref.Kind == StackRefKind::Slot)
          Ops.push_back({Address, Delta + int64_t(Ref.Offset),
                         Ref.Offset, Ref.IsStore});
      }

      // Backward walk from the block's slot live-out, mirroring the
      // solver's transfer exactly so verdicts match the fixpoint.
      SlotSet Live = F.BlockLiveOut[BlockIndex];
      if (Block.Term == TerminatorKind::IndirectCall)
        Live = SlotSet::top();
      else if (Block.Term == TerminatorKind::Call)
        Live |= Flow.callMayUse(Prog, RoutineIndex, BlockIndex);
      for (size_t I = Ops.size(); I-- > 0;) {
        if (Ops[I].IsStore) {
          DeadStoreCandidate C;
          C.Address = Ops[I].Address;
          C.RoutineIndex = RoutineIndex;
          C.BlockIndex = BlockIndex;
          C.FrameOffset = Ops[I].Offset;
          C.SpOffset = Ops[I].SpOffset;
          C.Dead = !Live.mayContain(Ops[I].Offset);
          Candidates.push_back(C);
          Live.erase(Ops[I].Offset);
        } else {
          Live.insert(Ops[I].Offset);
        }
      }
    }
  }

  std::sort(Candidates.begin(), Candidates.end(),
            [](const DeadStoreCandidate &A, const DeadStoreCandidate &B) {
              return A.Address < B.Address;
            });
  return Candidates;
}
