//===- opt/SaveRestoreElim.cpp - Callee-saved reallocation ----------------===//

#include "opt/SaveRestoreElim.h"

#include "cfg/CallGraph.h"
#include "dataflow/Liveness.h"
#include "isa/Encoding.h"
#include "isa/StackRef.h"

#include <algorithm>
#include <vector>
#include <cassert>

using namespace spike;

namespace {

/// Returns true if address \p Address is in \p Addrs.
bool containsAddr(const std::vector<uint64_t> &Addrs, uint64_t Address) {
  return std::find(Addrs.begin(), Addrs.end(), Address) != Addrs.end();
}

/// Checks that, ignoring the save/restore instructions themselves, no
/// path from an entrance can read \p Reg before writing it (otherwise the
/// routine consumes the caller's value of Reg and renaming would break
/// it).  Modelled as a liveness query with empty live-at-exit.
bool usesIncomingValue(const Program &Prog, uint32_t RoutineIndex,
                       const InterprocSummaries &Summaries,
                       const SavedRegInfo &Detail) {
  const Routine &R = Prog.Routines[RoutineIndex];
  unsigned Reg = Detail.Reg;

  // Recompute per-block DEF/UBD for Reg with the save/restore removed.
  std::vector<RegSet> Def(R.Blocks.size()), Ubd(R.Blocks.size());
  for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
       ++BlockIndex) {
    const BasicBlock &Block = R.Blocks[BlockIndex];
    RegSet D, U;
    for (uint64_t Address = Block.Begin; Address < Block.End; ++Address) {
      if (containsAddr(Detail.SaveAddrs, Address) ||
          containsAddr(Detail.RestoreAddrs, Address))
        continue;
      const Instruction Inst = Prog.inst(Address);
      bool IsCallTerminator =
          Address == Block.End - 1 && opcodeInfo(Inst.Op).IsCall;
      U |= Inst.uses() - D;
      if (!IsCallTerminator)
        D |= Inst.defs();
    }
    Def[BlockIndex] = D;
    Ubd[BlockIndex] = U;
  }

  // View the routine through a copy of its blocks with the adjusted
  // sets, then ask liveness whether Reg is live at any entrance.
  std::vector<BasicBlock> Blocks(R.Blocks.begin(), R.Blocks.end());
  for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
       ++BlockIndex) {
    Blocks[BlockIndex].Def = Def[BlockIndex];
    Blocks[BlockIndex].Ubd = Ubd[BlockIndex];
  }
  Routine Adjusted = R;
  Adjusted.Blocks = Blocks;
  LivenessResult Live = solveLiveness(
      Adjusted,
      [&](uint32_t BlockIndex) {
        return Summaries.callEffect(Prog, RoutineIndex, BlockIndex);
      },
      [&](uint32_t) { return RegSet(); }, RegSet::allBelow(NumIntRegs));

  for (uint32_t EntryBlock : R.EntryBlocks)
    if (Live.LiveIn[EntryBlock].contains(Reg))
      return true;
  return false;
}

/// Rewrites register \p From to \p To in \p Inst.
Instruction renameReg(Instruction Inst, unsigned From, unsigned To) {
  if (Inst.Ra == From)
    Inst.Ra = uint8_t(To);
  if (Inst.Rb == From)
    Inst.Rb = uint8_t(To);
  if (Inst.Rc == From)
    Inst.Rc = uint8_t(To);
  return Inst;
}

} // namespace

SaveRestoreElimStats
spike::eliminateSaveRestores(Image &Img, const Program &Prog,
                             const InterprocSummaries &Summaries) {
  SaveRestoreElimStats Stats;
  unsigned Sp = Prog.Conv.SpReg;
  uint64_t NopWord = encodeInstruction(inst::nop());

  // Every safety check below is made against the summaries of the
  // *pre-rewrite* program.  A rewritten routine clobbers its replacement
  // temporary unsaved, which grows its (transitive) call-killed set; a
  // caller that committed the same temporary for a value live across a
  // call would be broken retroactively.  Choosing each replacement
  // register at most once per run keeps the pre-rewrite summaries valid
  // for every check: no new definitions of any *other* register appear
  // anywhere.  (The pipeline re-analyzes between rounds, so later rounds
  // get a fresh budget with updated summaries.)
  RegSet GlobalReplacements;
  const CallGraph &Graph = Prog.Calls;

  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    const Routine &R = Prog.Routines[RoutineIndex];
    // Never rewrite quarantined bytes (the decoded view is a placeholder,
    // not the real instructions).  The UnresolvedJump terminator of the
    // synthetic block would skip them below anyway; be explicit.
    if (R.Quarantined)
      continue;
    // Reallocating inside a recursive routine is unsafe: the value would
    // live across a call that re-enters the routine, and the rewrite
    // itself adds the clobber that breaks its own safety premise.
    if (Graph.InCycle[RoutineIndex])
      continue;

    bool HasUnknownCode = false;
    for (const BasicBlock &Block : R.Blocks)
      HasUnknownCode |= Block.Term == TerminatorKind::UnresolvedJump;
    if (HasUnknownCode)
      continue;

    SaveRestoreInfo Info = analyzeSaveRestore(Prog, R);
    if (Info.Details.empty())
      continue;

    // Registers touched by the routine itself or by any call it makes,
    // plus everything live at any entrance: a register live-at-entry is
    // one some (transitive) caller expects to survive this routine, so
    // clobbering it unsaved would be wrong — this is Figure 1(d)'s use
    // of the phase 2 live sets.
    RegSet Blocked;
    for (const RegSet &Live :
         Summaries.Routines[RoutineIndex].LiveAtEntry)
      Blocked |= Live;
    for (uint64_t Address = R.Begin; Address < R.End; ++Address) {
      Instruction Inst = Prog.inst(Address);
      Blocked |= Inst.uses() | Inst.defs();
    }
    RegSet KilledByCalls;
    for (uint32_t CallBlock : R.CallBlocks) {
      KilledByCalls |= Summaries.callKilled(Prog, RoutineIndex, CallBlock);
      Blocked |=
          Summaries.callEffect(Prog, RoutineIndex, CallBlock).Used;
    }
    Blocked |= KilledByCalls;

    for (const SavedRegInfo &Detail : Info.Details) {
      // If some callee may overwrite the register mid-routine, the
      // original code observed the clobbered value between that call and
      // the restore; renaming to a preserved temporary would change it.
      if (KilledByCalls.contains(Detail.Reg))
        continue;

      // The slot must belong exclusively to this save/restore pair.
      bool SlotShared = false;
      for (uint64_t Address = R.Begin; Address < R.End && !SlotShared;
           ++Address) {
        if (containsAddr(Detail.SaveAddrs, Address) ||
            containsAddr(Detail.RestoreAddrs, Address))
          continue;
        StackRef Ref = stackRefOf(Prog.inst(Address), Sp);
        SlotShared =
            Ref.Kind == StackRefKind::Slot && Ref.Offset == Detail.Slot;
      }
      if (SlotShared)
        continue;

      if (usesIncomingValue(Prog, RoutineIndex, Summaries, Detail))
        continue;

      // Pick a free temporary no callee touches.
      unsigned Replacement = NumIntRegs;
      for (unsigned Candidate : Prog.Conv.Temporaries) {
        if (Blocked.contains(Candidate) ||
            GlobalReplacements.contains(Candidate))
          continue;
        Replacement = Candidate;
        break;
      }
      if (Replacement == NumIntRegs)
        continue;
      Blocked.insert(Replacement);
      GlobalReplacements.insert(Replacement);

      // Rewrite: nop out the save/restore, rename Rs -> Rt elsewhere.
      for (uint64_t Address : Detail.SaveAddrs)
        Img.Code[Address] = NopWord;
      for (uint64_t Address : Detail.RestoreAddrs)
        Img.Code[Address] = NopWord;
      Stats.DeletedInsts +=
          Detail.SaveAddrs.size() + Detail.RestoreAddrs.size();

      for (uint64_t Address = R.Begin; Address < R.End; ++Address) {
        if (containsAddr(Detail.SaveAddrs, Address) ||
            containsAddr(Detail.RestoreAddrs, Address))
          continue;
        // Decode the *current* image word: an earlier reallocation in
        // this routine may already have rewritten this instruction, and
        // re-encoding the stale decoded form would undo it.
        std::optional<Instruction> Inst = decodeInstruction(Img.Code[Address]);
        assert(Inst && "image corrupted during rewrite");
        if (!Inst->uses().contains(Detail.Reg) &&
            !Inst->defs().contains(Detail.Reg))
          continue;
        Instruction Renamed = renameReg(*Inst, Detail.Reg, Replacement);
        Img.Code[Address] = encodeInstruction(Renamed);
        ++Stats.RenamedInsts;
      }
      ++Stats.EliminatedRegs;
    }
  }
  return Stats;
}
