//===- dataflow/Liveness.cpp - Intra-routine register liveness -----------===//

#include "dataflow/Liveness.h"

#include <cassert>

using namespace spike;

std::vector<RegSet> spike::liveBeforeEachInst(
    const Program &Prog, const Routine &R, uint32_t BlockIndex,
    RegSet LiveOut, const CallEffect *CallEffectOrNull) {
  const BasicBlock &Block = R.Blocks[BlockIndex];
  assert(Block.size() > 0 && "empty basic block");
  std::vector<RegSet> Live(Block.size());

  RegSet Current = LiveOut;
  for (uint64_t Offset = Block.size(); Offset-- > 0;) {
    uint64_t Address = Block.Begin + Offset;
    const Instruction Inst = Prog.inst(Address);
    bool IsCallTerminator =
        Offset == Block.size() - 1 && opcodeInfo(Inst.Op).IsCall;
    if (IsCallTerminator) {
      assert(CallEffectOrNull && "call block requires a CallEffect");
      // The call-summary instruction: uses call-used, defines
      // call-defined (ra included by the provider).
      Current = CallEffectOrNull->Used | (Current - CallEffectOrNull->Defined);
      // The call's own register uses (e.g. jsr_r target) occur before
      // control transfers.
      Current |= Inst.uses();
    } else {
      Current = Inst.uses() | (Current - Inst.defs());
    }
    Live[Offset] = Current;
  }
  return Live;
}
