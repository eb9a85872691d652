//===- slice/SlotFlow.cpp - Stack-slot memory dataflow ---------------------===//

#include "slice/SlotFlow.h"

#include "cfg/SccDriver.h"
#include "isa/StackRef.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <span>

using namespace spike;

namespace {

/// One decoded slot access inside a block body, in entry coordinates.
struct SlotOp {
  uint64_t Address = 0;
  int64_t Offset = 0;
  bool IsStore = false;
};

/// Per-routine facts both phases share, computed once up front.
struct RoutinePrep {
  /// Some reachable instruction leaks the sp value (escapesSp).
  bool Escapes = false;

  /// Frame discipline broke down: sp clobbered, conflicting deltas,
  /// unresolved control flow, or a return at a nonzero delta.
  bool BadFrame = false;

  /// Slot accesses of the reachable blocks, block after block, each
  /// block's in address order: block B's are Ops[OpBegin[B],
  /// OpBegin[B + 1]).
  std::vector<SlotOp> Ops;
  std::vector<uint32_t> OpBegin;

  /// Number of slot loads / stores seen (telemetry).
  uint64_t Loads = 0;
  uint64_t Stores = 0;

  std::span<const SlotOp> ops(uint32_t Block) const {
    return std::span(Ops).subspan(OpBegin[Block],
                                  OpBegin[Block + 1] - OpBegin[Block]);
  }
};

/// One lane's prep scratch, reused across every routine the lane preps.
struct PrepScratch {
  std::vector<uint32_t> Work;
  /// The routine's slot ops in visit order, and where each visited
  /// block's run starts in it.
  std::vector<SlotOp> Ops;
  std::vector<uint32_t> FirstOp;
};

/// Walks the reachable blocks of \p R forward from its entrances,
/// recording each block's sp deltas in \p Facts and its slot accesses
/// as one run of \p S.Ops per block (run start in S.FirstOp, length in
/// Prep.OpBegin[Block + 1]).  Stops at the first frame-discipline
/// breakdown.
void walkReachable(const Program &Prog, const Routine &R, RoutinePrep &Prep,
                   RoutineSlotFacts &Facts, PrepScratch &S) {
  unsigned Sp = Prog.Conv.SpReg;
  std::vector<uint32_t> &Work = S.Work;
  Work.clear();
  auto Join = [&](uint32_t Block, int64_t Delta) {
    if (Facts.DeltaIn[Block] == UnknownDelta) {
      Facts.DeltaIn[Block] = Delta;
      Work.push_back(Block);
      return;
    }
    if (Facts.DeltaIn[Block] != Delta)
      Prep.BadFrame = true;
  };
  for (uint32_t Entry : R.EntryBlocks)
    Join(Entry, 0);

  // A block is queued once, when its delta is first set, so each block
  // contributes at most one run.
  while (!Work.empty() && !Prep.BadFrame) {
    uint32_t BlockIndex = Work.back();
    Work.pop_back();
    const BasicBlock &Block = R.Blocks[BlockIndex];
    int64_t Delta = Facts.DeltaIn[BlockIndex];
    S.FirstOp[BlockIndex] = uint32_t(S.Ops.size());
    for (uint64_t Address = Block.Begin; Address < Block.End; ++Address) {
      const Instruction &Inst = Prog.Insts[Address];
      if (escapesSp(Inst, Sp))
        Prep.Escapes = true;
      int64_t Adjust = 0;
      switch (spEffectOf(Inst, Sp, Adjust)) {
      case SpEffect::None:
        break;
      case SpEffect::Adjust:
        Delta += Adjust;
        continue;
      case SpEffect::Clobber:
        Prep.BadFrame = true;
        return;
      }
      StackRef Ref = stackRefOf(Inst, Sp);
      if (Ref.Kind == StackRefKind::Slot) {
        S.Ops.push_back({Address, Delta + int64_t(Ref.Offset), Ref.IsStore});
        ++Prep.OpBegin[BlockIndex + 1];
        ++(Ref.IsStore ? Prep.Stores : Prep.Loads);
      }
      // Indexed accesses cannot alias any frame under the no-escape
      // contract; when an escape exists, GlobalEscape handles it.
    }
    Facts.DeltaOut[BlockIndex] = Delta;
    if (Block.Term == TerminatorKind::UnresolvedJump) {
      Prep.BadFrame = true;
      return;
    }
    if (Block.Term == TerminatorKind::Return && Delta != 0) {
      Prep.BadFrame = true;
      return;
    }
    for (uint32_t Succ : R.succs(BlockIndex))
      Join(Succ, Delta);
  }
}

/// Recovers the sp delta of every reachable block of \p R, decodes its
/// slot accesses, and classifies frame discipline.  Seeding every
/// entrance with delta 0 and propagating forward visits exactly the
/// reachable blocks; a join conflict (two paths reach a block at
/// different deltas) or any undecodable sp effect poisons the routine.
void prepRoutine(const Program &Prog, uint32_t RoutineIndex,
                 RoutinePrep &Prep, RoutineSlotFacts &Facts,
                 PrepScratch &S) {
  const Routine &R = Prog.Routines[RoutineIndex];
  size_t NumBlocks = R.Blocks.size();
  Facts.DeltaIn.assign(NumBlocks, UnknownDelta);
  Facts.DeltaOut.assign(NumBlocks, UnknownDelta);
  // Sized up front: phase 2 reads a same-SCC caller's BlockLiveOut
  // before that caller's own liveness solve has run.
  Facts.BlockLiveIn.assign(NumBlocks, SlotSet());
  Facts.BlockLiveOut.assign(NumBlocks, SlotSet());
  Prep.OpBegin.assign(NumBlocks + 1, 0);
  if (R.Quarantined) {
    Prep.BadFrame = true;
    return;
  }
  S.Ops.clear();
  S.FirstOp.assign(NumBlocks, 0);
  walkReachable(Prog, R, Prep, Facts, S);

  // Place the runs in block order: OpBegin holds each block's run length
  // one slot up, so a prefix sum turns it into the begin offsets.
  for (size_t Block = 0; Block < NumBlocks; ++Block)
    Prep.OpBegin[Block + 1] += Prep.OpBegin[Block];
  Prep.Ops.resize(Prep.OpBegin[NumBlocks]);
  for (uint32_t Block = 0; Block < NumBlocks; ++Block) {
    uint32_t Count = Prep.OpBegin[Block + 1] - Prep.OpBegin[Block];
    std::copy_n(S.Ops.begin() + S.FirstOp[Block], Count,
                Prep.Ops.begin() + Prep.OpBegin[Block]);
  }
}

/// Offsets flipped between \p OldSet and \p NewSet, the slot analogue of
/// the register solvers' changed-bit deltas.  A collapse to (or from)
/// top counts as the full window width: every representable fact moved.
uint64_t changedSlotBits(const SlotSet &OldSet, const SlotSet &NewSet) {
  if (OldSet == NewSet)
    return 0;
  if (OldSet.isTop() || NewSet.isTop())
    return uint64_t(SlotSet::MaxOffset - SlotSet::MinOffset);
  return (NewSet - OldSet).size() + (OldSet - NewSet).size();
}

/// Phase 1 transfer: recomputes MayUse/MayDef of one routine from its
/// own slot ops plus its direct callees' (current) caller-visible facts.
/// Returns true if either set changed; \p Delta, when non-null,
/// accumulates the flipped-offset count of the change.
bool computeMayUseDef(const Program &Prog, uint32_t RoutineIndex,
                      const std::vector<RoutinePrep> &Prep,
                      std::vector<RoutineSlotFacts> &Facts,
                      uint64_t *Delta) {
  const Routine &R = Prog.Routines[RoutineIndex];
  RoutineSlotFacts &F = Facts[RoutineIndex];
  SlotSet Use, Def;
  if (F.Opaque) {
    Use = Def = SlotSet::top();
  } else {
    for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
         ++BlockIndex) {
      if (F.DeltaIn[BlockIndex] == UnknownDelta)
        continue; // Unreachable: never executes.
      for (const SlotOp &Op : Prep[RoutineIndex].ops(BlockIndex))
        (Op.IsStore ? Def : Use).insert(Op.Offset);
      const BasicBlock &Block = R.Blocks[BlockIndex];
      if (Block.Term == TerminatorKind::IndirectCall) {
        Use = Def = SlotSet::top();
      } else if (Block.Term == TerminatorKind::Call) {
        const RoutineSlotFacts &Callee =
            Facts[uint32_t(Block.CalleeRoutine)];
        int64_t Delta = F.DeltaOut[BlockIndex];
        Use |= Callee.MayUse.nonNegative().shifted(Delta);
        Def |= Callee.MayDef.nonNegative().shifted(Delta);
      }
    }
  }
  bool Changed = !(Use == F.MayUse) || !(Def == F.MayDef);
  if (Delta && Changed)
    *Delta += changedSlotBits(F.MayUse, Use) + changedSlotBits(F.MayDef, Def);
  F.MayUse = Use;
  F.MayDef = Def;
  return Changed;
}

/// Phase 2: recomputes LiveAtExit of one routine from the slot liveness
/// after each of its direct call sites.
SlotSet computeLiveAtExit(const Program &Prog, uint32_t RoutineIndex,
                          const CallGraph &Graph,
                          const std::vector<RoutineSlotFacts> &Facts) {
  const Routine &R = Prog.Routines[RoutineIndex];
  if (Facts[RoutineIndex].Opaque || R.AddressTaken ||
      R.CalledFromQuarantine)
    return SlotSet::top();
  SlotSet Out; // Entry routine with no callers: nothing survives it.
  for (uint32_t Caller : Graph.Callers[RoutineIndex]) {
    const RoutineSlotFacts &CF = Facts[Caller];
    if (CF.Opaque)
      return SlotSet::top();
    const Routine &CR = Prog.Routines[Caller];
    for (uint32_t CallBlock : CR.CallBlocks) {
      if (CR.Blocks[CallBlock].CalleeRoutine != int32_t(RoutineIndex))
        continue;
      int64_t Delta = CF.DeltaOut[CallBlock];
      if (Delta == UnknownDelta)
        continue; // Unreachable call site: never executes.
      Out |= CF.BlockLiveOut[CallBlock].shifted(-Delta);
    }
  }
  return Out;
}

/// Phase 2: solves the intra-routine backward slot liveness of one
/// routine against its (current) LiveAtExit and its callees' final
/// phase-1 facts.  Pure in those inputs, so re-running it after the
/// group fixpoint converges is deterministic.  \p SetOps, when non-null,
/// accumulates the block evaluations of the round-robin sweeps.
void solveBlockLiveness(const Program &Prog, uint32_t RoutineIndex,
                        const std::vector<RoutinePrep> &Prep,
                        std::vector<RoutineSlotFacts> &Facts,
                        uint64_t *SetOps) {
  const Routine &R = Prog.Routines[RoutineIndex];
  RoutineSlotFacts &F = Facts[RoutineIndex];
  size_t NumBlocks = R.Blocks.size();
  F.BlockLiveIn.assign(NumBlocks, SlotSet());
  F.BlockLiveOut.assign(NumBlocks, SlotSet());
  if (F.Opaque) {
    F.BlockLiveIn.assign(NumBlocks, SlotSet::top());
    F.BlockLiveOut.assign(NumBlocks, SlotSet::top());
    return;
  }

  // Round-robin sweeps in reverse block order (address order is roughly
  // topological, so backward facts converge in few sweeps).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t BlockIndex = uint32_t(NumBlocks); BlockIndex-- > 0;) {
      if (F.DeltaIn[BlockIndex] == UnknownDelta)
        continue;
      if (SetOps)
        ++*SetOps;
      const BasicBlock &Block = R.Blocks[BlockIndex];
      SlotSet Out;
      if (Block.Term == TerminatorKind::Return)
        Out = F.LiveAtExit;
      else if (Block.Term == TerminatorKind::Halt)
        Out = SlotSet();
      else if (Block.NumSuccs == 0)
        Out = SlotSet::top(); // Falls off the routine: unknowable.
      else
        for (uint32_t Succ : R.succs(BlockIndex))
          Out |= F.BlockLiveIn[Succ];

      SlotSet Before = Out;
      if (Block.Term == TerminatorKind::IndirectCall)
        Before = SlotSet::top();
      else if (Block.Term == TerminatorKind::Call) {
        const RoutineSlotFacts &Callee =
            Facts[uint32_t(Block.CalleeRoutine)];
        Before |= Callee.MayUse.nonNegative().shifted(
            F.DeltaOut[BlockIndex]);
      }
      std::span<const SlotOp> Ops = Prep[RoutineIndex].ops(BlockIndex);
      for (size_t I = Ops.size(); I-- > 0;) {
        if (Ops[I].IsStore)
          Before.erase(Ops[I].Offset); // Exact-slot must-kill.
        else
          Before.insert(Ops[I].Offset);
      }
      if (!(Out == F.BlockLiveOut[BlockIndex])) {
        F.BlockLiveOut[BlockIndex] = Out;
        Changed = true;
      }
      if (!(Before == F.BlockLiveIn[BlockIndex])) {
        F.BlockLiveIn[BlockIndex] = Before;
        Changed = true;
      }
    }
  }
}

} // namespace

SlotSet SlotFlowResult::callMayUse(const Program &Prog, uint32_t Routine,
                                   uint32_t Block) const {
  const BasicBlock &B = Prog.Routines[Routine].Blocks[Block];
  if (B.Term == TerminatorKind::IndirectCall)
    return SlotSet::top();
  if (B.Term != TerminatorKind::Call || B.CalleeRoutine < 0)
    return SlotSet();
  int64_t Delta = Routines[Routine].DeltaOut[Block];
  if (Delta == UnknownDelta)
    return SlotSet::top();
  return Routines[uint32_t(B.CalleeRoutine)]
      .MayUse.nonNegative()
      .shifted(Delta);
}

SlotSet SlotFlowResult::callMayDef(const Program &Prog, uint32_t Routine,
                                   uint32_t Block) const {
  const BasicBlock &B = Prog.Routines[Routine].Blocks[Block];
  if (B.Term == TerminatorKind::IndirectCall)
    return SlotSet::top();
  if (B.Term != TerminatorKind::Call || B.CalleeRoutine < 0)
    return SlotSet();
  int64_t Delta = Routines[Routine].DeltaOut[Block];
  if (Delta == UnknownDelta)
    return SlotSet::top();
  return Routines[uint32_t(B.CalleeRoutine)]
      .MayDef.nonNegative()
      .shifted(Delta);
}

SlotFlowResult spike::solveSlotFlow(const Program &Prog, ThreadPool *Pool,
                                    const ResourceGovernor *Gov) {
  telemetry::Span SolveSpan("slice.slotflow");
  SlotFlowResult Result;
  size_t NumRoutines = Prog.Routines.size();
  Result.Routines.resize(NumRoutines);
  std::vector<RoutinePrep> Prep(NumRoutines);
  const CallGraph &Graph = Prog.Calls;

  // Per-routine prep (deltas, escapes, slot ops) is independent work.
  std::vector<PrepScratch> Scratch(Pool ? Pool->jobs() : 1);
  forEachTask(Pool, NumRoutines, [&](size_t R, unsigned Lane) {
    prepRoutine(Prog, uint32_t(R), Prep[R], Result.Routines[R],
                Scratch[Lane]);
  });

  uint64_t SlotLoads = 0, SlotStores = 0;
  for (size_t R = 0; R < NumRoutines; ++R) {
    const Routine &Rt = Prog.Routines[R];
    Result.Routines[R].Opaque =
        Rt.Quarantined || Prep[R].Escapes || Prep[R].BadFrame;
    Result.OpaqueRoutines += Result.Routines[R].Opaque;
    SlotLoads += Prep[R].Loads;
    SlotStores += Prep[R].Stores;
    // A reachable sp leak (and any quarantined routine, whose bytes may
    // do anything) lets frame pointers roam: no slot fact anywhere holds.
    if (Graph.Reachable[R] && (Rt.Quarantined || Prep[R].Escapes))
      Result.GlobalEscape = true;
  }

  uint64_t Phase1Iters = 0, Phase2Iters = 0;
  if (Result.GlobalEscape) {
    for (RoutineSlotFacts &F : Result.Routines) {
      F.MayUse = F.MayDef = F.LiveAtExit = SlotSet::top();
      F.BlockLiveIn.assign(F.DeltaIn.size(), SlotSet::top());
      F.BlockLiveOut.assign(F.DeltaIn.size(), SlotSet::top());
    }
  } else {
    {
      telemetry::Span Phase1Span("slice.phase1");
      SccDriver Driver(Prog, Prog.CalleeFirst, Pool, Gov, nullptr);
      Driver.run("slice.phase1", [&](GroupTask &T) {
        bool Changed = true;
        while (Changed) {
          Changed = false;
          T.step();
          for (uint32_t R : T.Members) {
            uint64_t Delta = 0;
            T.pop(R);
            if (T.Cost)
              T.Cost->SetOps += Prog.Routines[R].Blocks.size();
            bool RChanged = computeMayUseDef(Prog, R, Prep, Result.Routines,
                                             T.Cost ? &Delta : nullptr);
            Changed |= RChanged;
            if (T.Cost && RChanged)
              T.Cost->ChangedBits.record(Delta);
          }
        }
        if (T.Cost)
          T.Cost->Iters = T.steps();
      });
      Phase1Iters = Driver.steps();
      Driver.emit("slice.phase1");
    }
    {
      telemetry::Span Phase2Span("slice.phase2");
      SccDriver Driver(Prog, Prog.CallerFirst, Pool, Gov, nullptr);
      Driver.run("slice.phase2", [&](GroupTask &T) {
        bool Changed = true;
        for (bool FirstSweep = true; Changed; FirstSweep = false) {
          Changed = false;
          T.step();
          for (uint32_t R : T.Members) {
            T.pop(R);
            SlotSet Exit = computeLiveAtExit(Prog, R, Graph, Result.Routines);
            bool ExitChanged = !(Exit == Result.Routines[R].LiveAtExit);
            if (ExitChanged) {
              if (T.Cost)
                T.Cost->ChangedBits.record(
                    changedSlotBits(Result.Routines[R].LiveAtExit, Exit));
              Result.Routines[R].LiveAtExit = Exit;
              Changed = true;
            }
            // Block liveness is a pure function of LiveAtExit and the
            // callees' final phase-1 facts, so it only moves when
            // LiveAtExit does; solve once per group, then on change, so
            // in-group callers read current values.
            if (FirstSweep || ExitChanged)
              solveBlockLiveness(Prog, R, Prep, Result.Routines,
                                 T.Cost ? &T.Cost->SetOps : nullptr);
          }
        }
        if (T.Cost)
          T.Cost->Iters = T.steps();
      });
      Phase2Iters = Driver.steps();
      Driver.emit("slice.phase2");
    }
  }

  if (telemetry::active()) {
    telemetry::count("slice.routines", NumRoutines);
    telemetry::count("slice.opaque_routines", Result.OpaqueRoutines);
    telemetry::count("slice.slot_loads", SlotLoads);
    telemetry::count("slice.slot_stores", SlotStores);
    telemetry::count("slice.global_escape", Result.GlobalEscape ? 1 : 0);
    telemetry::count("slice.phase1.group_iterations", Phase1Iters);
    telemetry::count("slice.phase2.group_iterations", Phase2Iters);
  }
  return Result;
}

SlotFlowResult spike::solveSlotFlow(const Program &Prog, unsigned Jobs) {
  if (Jobs <= 1)
    return solveSlotFlow(Prog, nullptr);
  ThreadPool Pool(Jobs);
  return solveSlotFlow(Prog, &Pool);
}
