//===- slice/SlotFlow.cpp - Stack-slot memory dataflow ---------------------===//

#include "slice/SlotFlow.h"

#include "cfg/CallGraph.h"
#include "cfg/SccSchedule.h"
#include "isa/StackRef.h"
#include "support/Budget.h"
#include "telemetry/Profiling.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <memory>

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

  /// Slot accesses per block, in address order (reachable blocks only).
  std::vector<std::vector<SlotOp>> Ops;

  /// Number of slot loads / stores seen (telemetry).
  uint64_t Loads = 0;
  uint64_t Stores = 0;
};

/// Recovers the sp delta of every reachable block of \p R, decodes its
/// slot accesses, and classifies frame discipline.  Seeding every
/// entrance with delta 0 and propagating forward visits exactly the
/// reachable blocks; a join conflict (two paths reach a block at
/// different deltas) or any undecodable sp effect poisons the routine.
void prepRoutine(const Program &Prog, uint32_t RoutineIndex,
                 RoutinePrep &Prep, RoutineSlotFacts &Facts) {
  const Routine &R = Prog.Routines[RoutineIndex];
  unsigned Sp = Prog.Conv.SpReg;
  size_t NumBlocks = R.Blocks.size();
  Facts.DeltaIn.assign(NumBlocks, UnknownDelta);
  Facts.DeltaOut.assign(NumBlocks, UnknownDelta);
  // Sized up front: phase 2 reads a same-SCC caller's BlockLiveOut
  // before that caller's own liveness solve has run.
  Facts.BlockLiveIn.assign(NumBlocks, SlotSet());
  Facts.BlockLiveOut.assign(NumBlocks, SlotSet());
  Prep.Ops.assign(NumBlocks, {});
  if (R.Quarantined) {
    Prep.BadFrame = true;
    return;
  }

  std::vector<uint32_t> Work;
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

  while (!Work.empty() && !Prep.BadFrame) {
    uint32_t BlockIndex = Work.back();
    Work.pop_back();
    const BasicBlock &Block = R.Blocks[BlockIndex];
    int64_t Delta = Facts.DeltaIn[BlockIndex];
    std::vector<SlotOp> &Ops = Prep.Ops[BlockIndex];
    Ops.clear(); // A re-join never happens, but stay idempotent.
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
        Ops.push_back({Address, Delta + int64_t(Ref.Offset), Ref.IsStore});
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
      for (const SlotOp &Op : Prep[RoutineIndex].Ops[BlockIndex])
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
      const std::vector<SlotOp> &Ops = Prep[RoutineIndex].Ops[BlockIndex];
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

namespace {

/// Throws the budget-blown error for one SCC group of the slot solver.
[[noreturn]] void throwSlotBlown(BudgetVerdict Verdict, const char *Phase,
                                 const Program &Prog,
                                 const std::vector<uint32_t> &Members) {
  std::vector<std::string> Names;
  Names.reserve(Members.size());
  for (uint32_t R : Members)
    Names.push_back(Prog.Routines[R].Name);
  throw BudgetBlownError(Verdict, Phase, std::move(Names));
}

} // namespace

namespace {

SlotFlowResult solveSlotFlowImpl(const Program &Prog, ThreadPool *Pool,
                                 const ResourceGovernor *Gov,
                                 const SlotReuse *Reuse,
                                 SlotReuseStats *Stats) {
  telemetry::Span SolveSpan("slice.slotflow");
  SlotFlowResult Result;
  size_t NumRoutines = Prog.Routines.size();
  Result.Routines.resize(NumRoutines);
  std::vector<RoutinePrep> Prep(NumRoutines);
  CallGraph Graph = buildCallGraph(Prog);

  // Per-routine prep (deltas, escapes, slot ops) is independent work.
  forEachTask(Pool, NumRoutines, [&](size_t R, unsigned) {
    prepRoutine(Prog, uint32_t(R), Prep[R], Result.Routines[R]);
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

  // Reuse preconditions.  Under a global escape every fact is top and the
  // "solve" below is a constant fill, so reuse would save nothing; an
  // old-version escape means the cache is all-top and restoring it would
  // be wrong.  StructClean[r] implies identical prep for r, so a
  // struct-clean routine's Opaque bit matches the old version's.
  if (Reuse &&
      (Result.GlobalEscape || !Reuse->Old || Reuse->Old->GlobalEscape ||
       Reuse->Old->Routines.size() != NumRoutines || !Reuse->StructClean ||
       Reuse->StructClean->size() != NumRoutines))
    Reuse = nullptr;
  if (Stats)
    Stats->Full = Reuse == nullptr;
  // Monotone per-routine dirty flags; relaxed atomics because same-level
  // groups may flag a common later-level dependent concurrently, and the
  // pool's level joins order every cross-level read after the writes.
  std::unique_ptr<std::atomic<uint8_t>[]> Dirty;
  if (Reuse) {
    Dirty.reset(new std::atomic<uint8_t>[NumRoutines]);
    for (size_t R = 0; R < NumRoutines; ++R)
      Dirty[R].store((*Reuse->StructClean)[R] ? 0 : 1,
                     std::memory_order_relaxed);
  }
  auto GroupDirty = [&](const std::vector<uint32_t> &Members) {
    for (uint32_t R : Members)
      if (Dirty[R].load(std::memory_order_relaxed))
        return true;
    return false;
  };

  uint64_t Phase1Iters = 0, Phase2Iters = 0;
  if (Result.GlobalEscape) {
    for (RoutineSlotFacts &F : Result.Routines) {
      F.MayUse = F.MayDef = F.LiveAtExit = SlotSet::top();
      F.BlockLiveIn.assign(F.DeltaIn.size(), SlotSet::top());
      F.BlockLiveOut.assign(F.DeltaIn.size(), SlotSet::top());
    }
  } else {
    bool Profile = telemetry::profiling();
    {
      telemetry::Span Phase1Span("slice.phase1");
      SccSchedule Sched = buildCalleeFirstSchedule(Prog, Graph);
      std::vector<uint64_t> GroupIters(Sched.NumGroups, 0);
      std::vector<uint8_t> Restored(Reuse ? Sched.NumGroups : 0, 0);
      std::vector<telemetry::GroupCost> Profiles(Profile ? Sched.NumGroups
                                                         : 0);
      std::vector<uint64_t> RoutinePops(Profile ? NumRoutines : 0, 0);
      for (telemetry::GroupCost &P : Profiles)
        P.RoutinePops = RoutinePops.data();
      for (const std::vector<uint32_t> &Level : Sched.Levels)
        forEachTask(Pool, Level.size(), [&](size_t I, unsigned) {
          uint32_t Group = Level[I];
          if (Reuse && !GroupDirty(Sched.Members[Group])) {
            // Every input this group reads equals the old version's, so
            // its unique fixpoint is the cached one.
            for (uint32_t R : Sched.Members[Group]) {
              Result.Routines[R].MayUse = Reuse->Old->Routines[R].MayUse;
              Result.Routines[R].MayDef = Reuse->Old->Routines[R].MayDef;
            }
            Restored[Group] = 1;
            return;
          }
          if (Reuse)
            for (uint32_t R : Sched.Members[Group])
              Dirty[R].store(1, std::memory_order_relaxed);
          telemetry::GroupCost *Prof = Profile ? &Profiles[Group] : nullptr;
          uint64_t T0 = Prof ? telemetry::costClockNs() : 0;
          bool Changed = true;
          while (Changed) {
            Changed = false;
            ++GroupIters[Group];
            if (Gov) {
              BudgetVerdict V = Gov->poll(GroupIters[Group]);
              if (V != BudgetVerdict::Ok)
                throwSlotBlown(V, "slice.phase1", Prog,
                               Sched.Members[Group]);
            }
            for (uint32_t R : Sched.Members[Group]) {
              uint64_t Delta = 0;
              if (Prof) {
                ++Prof->Pops;
                ++Prof->RoutinePops[R];
                Prof->SetOps += Prog.Routines[R].Blocks.size();
              }
              bool RChanged = computeMayUseDef(Prog, R, Prep,
                                               Result.Routines,
                                               Prof ? &Delta : nullptr);
              Changed |= RChanged;
              if (Prof && RChanged)
                Prof->ChangedBits.record(Delta);
            }
          }
          if (Reuse)
            // Callers whose inputs actually changed join the frontier;
            // they sit at strictly later schedule levels.
            for (uint32_t R : Sched.Members[Group]) {
              const RoutineSlotFacts &OldF = Reuse->Old->Routines[R];
              if (!(Result.Routines[R].MayUse == OldF.MayUse) ||
                  !(Result.Routines[R].MayDef == OldF.MayDef))
                for (uint32_t Caller : Graph.Callers[R])
                  Dirty[Caller].store(1, std::memory_order_relaxed);
            }
          if (Prof) {
            Prof->Iters = GroupIters[Group];
            Prof->Ns += telemetry::costClockNs() - T0;
          }
        });
      for (uint64_t Iters : GroupIters) // Serial: after the joins.
        Phase1Iters += Iters;
      if (Reuse) {
        uint64_t Reused = 0;
        for (uint8_t Flag : Restored)
          Reused += Flag;
        telemetry::count("slice.phase1.groups_reused", Reused);
        if (Stats)
          for (size_t R = 0; R < NumRoutines; ++R)
            Stats->Phase1Dirty += Dirty[R].load(std::memory_order_relaxed);
      }
      if (Profile)
        telemetry::emitGroupCosts(
            "slice.phase1", Profiles,
            [&](size_t Group) -> const std::vector<uint32_t> & {
              return Sched.Members[Group];
            },
            [&](uint32_t Routine) -> std::string_view {
              return Prog.Routines[Routine].Name;
            },
            RoutinePops.data());
    }
    {
      telemetry::Span Phase2Span("slice.phase2");
      SccSchedule Sched = buildCallerFirstSchedule(Prog, Graph);
      if (Reuse && Reuse->Phase2Seeds &&
          Reuse->Phase2Seeds->size() == NumRoutines)
        for (size_t R = 0; R < NumRoutines; ++R)
          if ((*Reuse->Phase2Seeds)[R])
            Dirty[R].store(1, std::memory_order_relaxed);
      std::vector<uint64_t> GroupIters(Sched.NumGroups, 0);
      std::vector<uint8_t> Restored(Reuse ? Sched.NumGroups : 0, 0);
      std::vector<telemetry::GroupCost> Profiles(Profile ? Sched.NumGroups
                                                         : 0);
      std::vector<uint64_t> RoutinePops(Profile ? NumRoutines : 0, 0);
      for (telemetry::GroupCost &P : Profiles)
        P.RoutinePops = RoutinePops.data();
      for (const std::vector<uint32_t> &Level : Sched.Levels)
        forEachTask(Pool, Level.size(), [&](size_t I, unsigned) {
          uint32_t Group = Level[I];
          if (Reuse && !GroupDirty(Sched.Members[Group])) {
            for (uint32_t R : Sched.Members[Group]) {
              const RoutineSlotFacts &OldF = Reuse->Old->Routines[R];
              Result.Routines[R].LiveAtExit = OldF.LiveAtExit;
              Result.Routines[R].BlockLiveIn = OldF.BlockLiveIn;
              Result.Routines[R].BlockLiveOut = OldF.BlockLiveOut;
            }
            Restored[Group] = 1;
            return;
          }
          if (Reuse)
            for (uint32_t R : Sched.Members[Group])
              Dirty[R].store(1, std::memory_order_relaxed);
          telemetry::GroupCost *Prof = Profile ? &Profiles[Group] : nullptr;
          uint64_t T0 = Prof ? telemetry::costClockNs() : 0;
          bool Changed = true;
          while (Changed) {
            Changed = false;
            ++GroupIters[Group];
            if (Gov) {
              BudgetVerdict V = Gov->poll(GroupIters[Group]);
              if (V != BudgetVerdict::Ok)
                throwSlotBlown(V, "slice.phase2", Prog,
                               Sched.Members[Group]);
            }
            for (uint32_t R : Sched.Members[Group]) {
              if (Prof) {
                ++Prof->Pops;
                ++Prof->RoutinePops[R];
              }
              SlotSet Exit =
                  computeLiveAtExit(Prog, R, Graph, Result.Routines);
              if (!(Exit == Result.Routines[R].LiveAtExit)) {
                if (Prof)
                  Prof->ChangedBits.record(
                      changedSlotBits(Result.Routines[R].LiveAtExit, Exit));
                Result.Routines[R].LiveAtExit = Exit;
                Changed = true;
              }
              // Block liveness is a pure function of LiveAtExit and the
              // callees' final phase-1 facts; recompute each sweep so
              // in-group callers read current values.
              solveBlockLiveness(Prog, R, Prep, Result.Routines,
                                 Prof ? &Prof->SetOps : nullptr);
            }
          }
          if (Reuse)
            // Callees read this group's members' liveness after their
            // call sites; flag them when it moved.  Struct-dirty members
            // are skipped (block counts may differ) — their callees in
            // both versions are pre-seeded by Phase2Seeds.
            for (uint32_t R : Sched.Members[Group]) {
              if (!(*Reuse->StructClean)[R])
                continue;
              const RoutineSlotFacts &OldF = Reuse->Old->Routines[R];
              if (!(Result.Routines[R].LiveAtExit == OldF.LiveAtExit) ||
                  Result.Routines[R].BlockLiveOut != OldF.BlockLiveOut)
                for (uint32_t Callee : Graph.Callees[R])
                  Dirty[Callee].store(1, std::memory_order_relaxed);
            }
          if (Prof) {
            Prof->Iters = GroupIters[Group];
            Prof->Ns += telemetry::costClockNs() - T0;
          }
        });
      for (uint64_t Iters : GroupIters)
        Phase2Iters += Iters;
      if (Reuse) {
        uint64_t Reused = 0;
        for (uint8_t Flag : Restored)
          Reused += Flag;
        telemetry::count("slice.phase2.groups_reused", Reused);
        if (Stats)
          for (size_t R = 0; R < NumRoutines; ++R)
            Stats->Phase2Dirty += Dirty[R].load(std::memory_order_relaxed);
      }
      if (Profile)
        telemetry::emitGroupCosts(
            "slice.phase2", Profiles,
            [&](size_t Group) -> const std::vector<uint32_t> & {
              return Sched.Members[Group];
            },
            [&](uint32_t Routine) -> std::string_view {
              return Prog.Routines[Routine].Name;
            },
            RoutinePops.data());
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

} // namespace

SlotFlowResult spike::solveSlotFlow(const Program &Prog, ThreadPool *Pool,
                                    const ResourceGovernor *Gov) {
  return solveSlotFlowImpl(Prog, Pool, Gov, nullptr, nullptr);
}

SlotFlowResult spike::solveSlotFlow(const Program &Prog, unsigned Jobs) {
  if (Jobs <= 1)
    return solveSlotFlow(Prog, nullptr);
  ThreadPool Pool(Jobs);
  return solveSlotFlow(Prog, &Pool);
}

SlotFlowResult spike::solveSlotFlowIncremental(const Program &Prog,
                                               const SlotReuse &Reuse,
                                               ThreadPool *Pool,
                                               const ResourceGovernor *Gov,
                                               SlotReuseStats *Stats) {
  return solveSlotFlowImpl(Prog, Pool, Gov, &Reuse, Stats);
}
