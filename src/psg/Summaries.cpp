//===- psg/Summaries.cpp - Extracted per-routine summaries ----------------===//

#include "psg/Summaries.h"

#include "dataflow/CallPolicy.h"
#include "psg/PsgSolver.h"

#include <algorithm>
#include <cassert>

using namespace spike;

RoutineResults
spike::extractRoutineSummaries(const Program &Prog,
                               const ProgramSummaryGraph &Psg, RegSet Saved,
                               uint32_t RoutineIndex) {
  RoutineResults Out;
  for (uint32_t EntryNode : Psg.entryNodes(Prog, RoutineIndex)) {
    const PsgNode &Node = Psg.Nodes[EntryNode];
    FlowSets Filtered = filterCalleeSaved(Node.Sets, Saved);
    CallSummary Summary;
    Summary.Used = Filtered.MayUse;
    // Along paths that never return (halt), MUST-DEF is top; cap the
    // reported call-defined set by call-killed so the summary keeps the
    // natural "must ⊆ may" shape consumers expect.
    Summary.Defined = Filtered.MustDef & Filtered.MayDef;
    Summary.Killed = Filtered.MayDef;
    Out.EntrySummaries.push_back(Summary);
    Out.LiveAtEntry.push_back(Node.Live);
  }
  for (uint32_t ExitNode : Psg.exitNodes(Prog, RoutineIndex))
    Out.LiveAtExit.push_back(Psg.Nodes[ExitNode].Live);
  return Out;
}

InterprocSummaries
spike::extractSummaries(const Program &Prog, const ProgramSummaryGraph &Psg,
                        const std::vector<RegSet> &SavedPerRoutine) {
  InterprocSummaries Result;
  Result.Routines.reserve(Prog.Routines.size());
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex)
    Result.Routines.push_back(extractRoutineSummaries(
        Prog, Psg, SavedPerRoutine[RoutineIndex], RoutineIndex));
  return Result;
}

CallEffect InterprocSummaries::callEffect(const Program &Prog,
                                          uint32_t RoutineIndex,
                                          uint32_t BlockIndex) const {
  const BasicBlock &Block = Prog.Routines[RoutineIndex].Blocks[BlockIndex];
  assert(Block.endsWithCall() && "block does not end with a call");
  RegSet RaOnly;
  RaOnly.insert(Prog.Conv.RaReg);

  CallEffect Effect;
  if (Block.Term == TerminatorKind::Call) {
    const CallSummary &Summary =
        Routines[Block.CalleeRoutine]
            .EntrySummaries[uint32_t(Block.CalleeEntry)];
    Effect.Used = Summary.Used - RaOnly;
    Effect.Defined = Summary.Defined | RaOnly;
  } else {
    FlowSets Label = indirectCallLabel(Prog, Block);
    Effect.Used = Label.MayUse;
    Effect.Defined = Label.MustDef;
  }
  return Effect;
}

RegSet InterprocSummaries::callKilled(const Program &Prog,
                                      uint32_t RoutineIndex,
                                      uint32_t BlockIndex) const {
  const BasicBlock &Block = Prog.Routines[RoutineIndex].Blocks[BlockIndex];
  assert(Block.endsWithCall() && "block does not end with a call");
  RegSet RaOnly;
  RaOnly.insert(Prog.Conv.RaReg);
  if (Block.Term == TerminatorKind::Call) {
    const CallSummary &Summary =
        Routines[Block.CalleeRoutine]
            .EntrySummaries[uint32_t(Block.CalleeEntry)];
    return Summary.Killed | RaOnly;
  }
  return indirectCallLabel(Prog, Block).MayDef;
}

RegSet InterprocSummaries::liveAtExitOfBlock(const Program &Prog,
                                             uint32_t RoutineIndex,
                                             uint32_t BlockIndex) const {
  const Routine &R = Prog.Routines[RoutineIndex];
  auto It =
      std::find(R.ExitBlocks.begin(), R.ExitBlocks.end(), BlockIndex);
  assert(It != R.ExitBlocks.end() && "block is not an exit");
  return Routines[RoutineIndex]
      .LiveAtExit[size_t(It - R.ExitBlocks.begin())];
}
