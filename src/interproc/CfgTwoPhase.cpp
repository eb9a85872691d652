//===- interproc/CfgTwoPhase.cpp - CFG-level reference analysis ----------===//

#include "interproc/CfgTwoPhase.h"

#include "telemetry/Profiling.h"
#include "telemetry/Telemetry.h"

#include "cfg/SccSchedule.h"
#include "dataflow/CallPolicy.h"
#include "dataflow/FlowSets.h"
#include "dataflow/Liveness.h"
#include "dataflow/Worklist.h"
#include "psg/PsgSolver.h"
#include "support/Budget.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace spike;

namespace {

/// Shared state of the reference analysis.
///
/// Like the PSG solvers, both phases are scheduled over the call graph's
/// SCC condensation: each component runs the serial routine-level
/// worklist, components of one condensation level run concurrently on
/// the optional pool, and a component only ever reads values its
/// predecessor components already converged — so the fixpoint is
/// identical for every job count.
class TwoPhaseEngine {
public:
  TwoPhaseEngine(const Program &Prog,
                 const std::vector<RegSet> &SavedPerRoutine, ThreadPool *Pool,
                 const ResourceGovernor *Gov)
      : Prog(Prog), Saved(SavedPerRoutine), Pool(Pool), Gov(Gov) {
    RaOnly.insert(Prog.Conv.RaReg);
    AllRegs = RegSet::allBelow(NumIntRegs);
    EntrySets.resize(Prog.Routines.size());
    LiveAtExit.assign(Prog.Routines.size(), RegSet());
    LiveAtEntry.resize(Prog.Routines.size());
    ReturnLive.resize(Prog.Routines.size());
    for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
         ++RoutineIndex) {
      // Entry MUST-DEF starts at top, like every must-problem variable.
      EntrySets[RoutineIndex].assign(
          Prog.Routines[RoutineIndex].numEntries(),
          FlowSets{RegSet(), RegSet(), AllRegs});
      LiveAtEntry[RoutineIndex].resize(
          Prog.Routines[RoutineIndex].numEntries());
      ReturnLive[RoutineIndex].assign(
          Prog.Routines[RoutineIndex].CallBlocks.size(), RegSet());
    }
    buildCallers();
    Graph = buildCallGraph(Prog);
  }

  void run() {
    runPhase1();
    runPhase2();
  }

  InterprocSummaries takeResults() {
    InterprocSummaries Result;
    Result.Routines.resize(Prog.Routines.size());
    for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
         ++RoutineIndex) {
      const Routine &R = Prog.Routines[RoutineIndex];
      RoutineResults &Out = Result.Routines[RoutineIndex];
      for (uint32_t EntryIndex = 0; EntryIndex < R.numEntries();
           ++EntryIndex) {
        FlowSets Filtered = filterCalleeSaved(
            EntrySets[RoutineIndex][EntryIndex], Saved[RoutineIndex]);
        // Cap call-defined by call-killed, as extractSummaries does.
        Out.EntrySummaries.push_back({Filtered.MayUse,
                                      Filtered.MustDef & Filtered.MayDef,
                                      Filtered.MayDef});
        Out.LiveAtEntry.push_back(LiveAtEntry[RoutineIndex][EntryIndex]);
      }
      // Any exit can return to any caller, so all exits of a routine
      // share one live-at-exit value.
      Out.LiveAtExit.assign(R.ExitBlocks.size(),
                            LiveAtExit[RoutineIndex]);
    }
    return Result;
  }

private:
  void buildCallers() {
    Callers.resize(Prog.Routines.size());
    CallerSites.resize(Prog.Routines.size());
    for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
         ++RoutineIndex) {
      const Routine &R = Prog.Routines[RoutineIndex];
      for (uint32_t CallIndex = 0; CallIndex < R.CallBlocks.size();
           ++CallIndex) {
        const BasicBlock &BlockRef = R.Blocks[R.CallBlocks[CallIndex]];
        if (BlockRef.Term == TerminatorKind::Call) {
          Callers[BlockRef.CalleeRoutine].push_back(RoutineIndex);
          CallerSites[BlockRef.CalleeRoutine].push_back(
              {RoutineIndex, CallIndex});
        }
      }
    }
  }

  /// The phase-1 call-return summary of the call ending \p Block, with
  /// the Section 3.4 filter and the caller-side ra fold applied.
  FlowSets crLabel(const BasicBlock &Block) const {
    FlowSets Label;
    if (Block.Term == TerminatorKind::Call) {
      FlowSets Filtered = filterCalleeSaved(
          EntrySets[Block.CalleeRoutine][uint32_t(Block.CalleeEntry)],
          Saved[Block.CalleeRoutine]);
      Label.MayUse = Filtered.MayUse - RaOnly;
      Label.MayDef = Filtered.MayDef | RaOnly;
      Label.MustDef = Filtered.MustDef | RaOnly;
    } else {
      Label = indirectCallLabel(Prog, Block);
    }
    return Label;
  }

  /// Solves the intra-routine three-set problem for routine
  /// \p RoutineIndex with the current callee summaries; returns the IN
  /// value of every block.  \p SetOps, when non-null, accumulates the
  /// block evaluations of the inner worklist.
  std::vector<FlowSets> solveRoutineSets(uint32_t RoutineIndex,
                                         uint64_t *SetOps) const {
    const Routine &R = Prog.Routines[RoutineIndex];
    // MUST-DEF starts at top (must problem, greatest fixpoint); the MAY
    // sets start at bottom — matching the PSG solvers.
    std::vector<FlowSets> In(R.Blocks.size(),
                             FlowSets{RegSet(), RegSet(), AllRegs});
    Worklist List(static_cast<uint32_t>(R.Blocks.size()));
    List.pushAll();
    while (!List.empty()) {
      uint32_t BlockIndex = List.pop();
      if (SetOps)
        ++*SetOps;
      const BasicBlock &Block = R.Blocks[BlockIndex];
      FlowSets Out;
      switch (Block.Term) {
      case TerminatorKind::Return:
        Out = FlowSets::atExit();
        break;
      case TerminatorKind::UnresolvedJump:
        Out = unknownJumpBoundary(Prog, Block);
        break;
      case TerminatorKind::Halt:
        Out = FlowSets::afterHalt(AllRegs);
        break;
      default: {
        bool First = true;
        for (uint32_t Succ : R.succs(BlockIndex)) {
          Out = First ? In[Succ] : Out.meet(In[Succ]);
          First = false;
        }
        if (First)
          Out = FlowSets::afterHalt(AllRegs); // Dead end: no paths.
        break;
      }
      }
      if (Block.endsWithCall())
        Out = Out.throughSummary(crLabel(Block));
      FlowSets NewIn = Out.transferThrough(Block.Def, Block.Ubd);
      if (NewIn == In[BlockIndex])
        continue;
      In[BlockIndex] = NewIn;
      for (uint32_t Pred : R.preds(BlockIndex))
        List.push(Pred);
    }
    return In;
  }

  /// Returns the local worklist index of \p RoutineIndex within the
  /// ascending member list, or -1 when it belongs to another component.
  static int32_t localOf(const std::vector<uint32_t> &Members,
                         uint32_t RoutineIndex) {
    auto It = std::lower_bound(Members.begin(), Members.end(), RoutineIndex);
    if (It == Members.end() || *It != RoutineIndex)
      return -1;
    return int32_t(It - Members.begin());
  }

  /// Throws the budget-blown error for one component, naming its member
  /// routines so the governed driver can degrade exactly that group.
  [[noreturn]] void throwBlown(BudgetVerdict Verdict, const char *Phase,
                               const std::vector<uint32_t> &Members) const {
    std::vector<std::string> Names;
    Names.reserve(Members.size());
    for (uint32_t R : Members)
      Names.push_back(Prog.Routines[R].Name);
    throw BudgetBlownError(Verdict, Phase, std::move(Names));
  }

  /// Bits flipped between \p OldSet and \p NewSet — the convergence
  /// trace's unit of set growth (symmetric difference, so a greatest-
  /// fixpoint shrink counts the same as a least-fixpoint grow).
  static uint64_t changedBits(RegSet OldSet, RegSet NewSet) {
    return (NewSet - OldSet).count() + (OldSet - NewSet).count();
  }

  /// Solves one component's phase-1 pass: callee summaries outside the
  /// component have converged in earlier levels, so only in-component
  /// callers requeue.  \p Prof, when non-null, accumulates the group's
  /// cost (same discipline as the PSG solvers: one writer per group).
  void solveGroupPhase1(const std::vector<uint32_t> &Members, bool MayUsePass,
                        telemetry::GroupCost *Prof) {
    Worklist List(Members.size());
    List.pushAll();
    uint64_t Pops = 0;
    std::vector<uint32_t> LocalPops(Prof ? Members.size() : 0, 0);
    while (!List.empty()) {
      if (Gov) {
        BudgetVerdict V = Gov->poll(++Pops);
        if (V != BudgetVerdict::Ok)
          throwBlown(V, "cfg-two-phase.phase1", Members);
      }
      uint32_t Local = List.pop();
      uint32_t RoutineIndex = Members[Local];
      const Routine &R = Prog.Routines[RoutineIndex];
      if (Prof) {
        ++Prof->Pops;
        ++Prof->RoutinePops[RoutineIndex];
        ++LocalPops[Local];
      }
      std::vector<FlowSets> In =
          solveRoutineSets(RoutineIndex, Prof ? &Prof->SetOps : nullptr);
      bool Changed = false;
      uint64_t Delta = 0;
      for (uint32_t EntryIndex = 0; EntryIndex < R.numEntries();
           ++EntryIndex) {
        const FlowSets &NewSets = In[R.EntryBlocks[EntryIndex]];
        FlowSets &Stored = EntrySets[RoutineIndex][EntryIndex];
        if (MayUsePass) {
          if (NewSets.MayUse != Stored.MayUse) {
            Changed = true;
            if (Prof)
              Delta += changedBits(Stored.MayUse, NewSets.MayUse);
          }
          Stored.MayUse = NewSets.MayUse;
        } else {
          if (NewSets.MustDef != Stored.MustDef ||
              NewSets.MayDef != Stored.MayDef) {
            Changed = true;
            if (Prof)
              Delta += changedBits(Stored.MustDef, NewSets.MustDef) +
                       changedBits(Stored.MayDef, NewSets.MayDef);
          }
          Stored = NewSets;
        }
      }
      if (Prof && Changed)
        Prof->ChangedBits.record(Delta);
      if (Changed)
        for (uint32_t Caller : Callers[RoutineIndex]) {
          int32_t CallerLocal = localOf(Members, Caller);
          if (CallerLocal >= 0)
            List.push(uint32_t(CallerLocal));
        }
    }
    if (Prof)
      for (uint32_t Count : LocalPops)
        Prof->Iters = std::max<uint64_t>(Prof->Iters, Count);
  }

  // Like the PSG solver, phase 1 runs in two passes: the MAY-USE
  // equation subtracts callee MUST-DEF, so iterating everything at once
  // is non-monotone and can oscillate on recursive call graphs.  Pass A
  // converges the (monotone, self-contained) MUST-DEF/MAY-DEF summaries;
  // pass B restarts MAY-USE from bottom with them frozen.
  void runPhase1() {
    SccSchedule Sched = buildCalleeFirstSchedule(Prog, Graph);
    bool Profile = telemetry::profiling();
    std::vector<telemetry::GroupCost> Profiles(Profile ? Sched.NumGroups : 0);
    std::vector<uint64_t> RoutinePops(Profile ? Prog.Routines.size() : 0, 0);
    for (telemetry::GroupCost &P : Profiles)
      P.RoutinePops = RoutinePops.data();
    auto RunPass = [&](bool MayUsePass) {
      for (const std::vector<uint32_t> &Level : Sched.Levels)
        forEachTask(Pool, Level.size(), [&](size_t I, unsigned) {
          uint32_t Group = Level[I];
          telemetry::GroupCost *Prof = Profile ? &Profiles[Group] : nullptr;
          uint64_t T0 = Prof ? telemetry::costClockNs() : 0;
          solveGroupPhase1(Sched.Members[Group], MayUsePass, Prof);
          if (Prof)
            Prof->Ns += telemetry::costClockNs() - T0;
        });
    };

    RunPass(false);
    for (auto &PerEntry : EntrySets)
      for (FlowSets &Sets : PerEntry)
        Sets.MayUse = RegSet();
    RunPass(true);
    if (Profile)
      telemetry::emitGroupCosts(
          "interproc.phase1", Profiles,
          [&](size_t Group) -> const std::vector<uint32_t> & {
            return Sched.Members[Group];
          },
          [&](uint32_t Routine) -> std::string_view {
            return Prog.Routines[Routine].Name;
          },
          RoutinePops.data());
  }

  /// Solves intra-routine liveness for \p RoutineIndex with the current
  /// exit seeds and call summaries.
  LivenessResult solveRoutineLiveness(uint32_t RoutineIndex) const {
    const Routine &R = Prog.Routines[RoutineIndex];
    RegSet ExitLive = LiveAtExit[RoutineIndex];
    return solveLiveness(
        R,
        [&](uint32_t BlockIndex) {
          FlowSets Label = crLabel(R.Blocks[BlockIndex]);
          return CallEffect{Label.MayUse, Label.MustDef};
        },
        [&](uint32_t) { return ExitLive; },
        [&](uint32_t BlockIndex) {
          return Prog.jumpTargetLive(R.Blocks[BlockIndex].End - 1);
        });
  }

  /// Solves one component's phase-2 liveness.  Exit liveness is *pulled*:
  /// a routine's live-at-exit is its seed, joined with the return-point
  /// liveness of all its call sites (in-component sites iterate here;
  /// others converged in earlier levels) and, for address-taken routines,
  /// the indirect accumulator.  \p AccumIn is the accumulator merged from
  /// earlier levels; the (possibly grown) value is returned for the level
  /// join, exactly like the PSG solver.
  RegSet solveGroupPhase2(const std::vector<uint32_t> &Members,
                          RegSet AccumIn, telemetry::GroupCost *Prof) {
    RegSet LocalAccum = AccumIn;
    Worklist List(Members.size());
    List.pushAll();
    uint64_t Pops = 0;
    std::vector<uint32_t> LocalPops(Prof ? Members.size() : 0, 0);
    while (!List.empty()) {
      if (Gov) {
        BudgetVerdict V = Gov->poll(++Pops);
        if (V != BudgetVerdict::Ok)
          throwBlown(V, "cfg-two-phase.phase2", Members);
      }
      uint32_t Local = List.pop();
      uint32_t RoutineIndex = Members[Local];
      const Routine &R = Prog.Routines[RoutineIndex];
      if (Prof) {
        ++Prof->Pops;
        ++Prof->RoutinePops[RoutineIndex];
        ++LocalPops[Local];
        // No inner worklist stats from solveLiveness, so the blocks it
        // sweeps stand in for the set operations of this solve.
        Prof->SetOps += R.Blocks.size();
      }

      RegSet ExitLive = ExitSeedOfRoutine[RoutineIndex];
      for (const auto &[Caller, CallIndex] : CallerSites[RoutineIndex])
        ExitLive |= ReturnLive[Caller][CallIndex];
      if (R.AddressTaken)
        ExitLive |= LocalAccum;
      LiveAtExit[RoutineIndex] = ExitLive;

      LivenessResult Live = solveRoutineLiveness(RoutineIndex);
      for (uint32_t EntryIndex = 0; EntryIndex < R.numEntries();
           ++EntryIndex)
        LiveAtEntry[RoutineIndex][EntryIndex] =
            Live.LiveIn[R.EntryBlocks[EntryIndex]];

      uint64_t Delta = 0;
      for (uint32_t CallIndex = 0; CallIndex < R.CallBlocks.size();
           ++CallIndex) {
        const BasicBlock &BlockRef = R.Blocks[R.CallBlocks[CallIndex]];
        RegSet AtReturn = Live.LiveOut[R.CallBlocks[CallIndex]];
        if (ReturnLive[RoutineIndex][CallIndex] == AtReturn)
          continue;
        if (Prof)
          Delta += changedBits(ReturnLive[RoutineIndex][CallIndex], AtReturn);
        ReturnLive[RoutineIndex][CallIndex] = AtReturn;
        if (BlockRef.Term == TerminatorKind::Call) {
          int32_t CalleeLocal = localOf(Members, BlockRef.CalleeRoutine);
          if (CalleeLocal >= 0)
            List.push(uint32_t(CalleeLocal));
        } else if (!LocalAccum.containsAll(AtReturn)) {
          LocalAccum |= AtReturn;
          for (uint32_t M = 0; M < Members.size(); ++M)
            if (Prog.Routines[Members[M]].AddressTaken)
              List.push(M);
        }
      }
      if (Prof && Delta != 0)
        Prof->ChangedBits.record(Delta);
    }
    if (Prof)
      for (uint32_t Count : LocalPops)
        Prof->Iters = std::max<uint64_t>(Prof->Iters, Count);
    return LocalAccum;
  }

  void runPhase2() {
    RegSet UnknownCallerLive = Prog.Conv.unknownCallerLiveAtExit();
    ExitSeedOfRoutine.assign(Prog.Routines.size(), RegSet());
    for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
         ++RoutineIndex) {
      if (int32_t(RoutineIndex) == Prog.EntryRoutine ||
          Prog.Routines[RoutineIndex].AddressTaken)
        ExitSeedOfRoutine[RoutineIndex] = UnknownCallerLive;
      // Mirrors the PSG solver: returning into quarantined (or unowned)
      // code must assume everything live, not just the calling
      // standard's unknown-caller set.
      if (Prog.Routines[RoutineIndex].CalledFromQuarantine)
        ExitSeedOfRoutine[RoutineIndex] |= AllRegs;
    }

    SccSchedule Sched = buildCallerFirstSchedule(Prog, Graph);
    bool Profile = telemetry::profiling();
    std::vector<telemetry::GroupCost> Profiles(Profile ? Sched.NumGroups : 0);
    std::vector<uint64_t> RoutinePops(Profile ? Prog.Routines.size() : 0, 0);
    for (telemetry::GroupCost &P : Profiles)
      P.RoutinePops = RoutinePops.data();
    RegSet IndirectAccum;
    std::vector<RegSet> GroupAccum(Sched.NumGroups);
    for (const std::vector<uint32_t> &Level : Sched.Levels) {
      forEachTask(Pool, Level.size(), [&](size_t I, unsigned) {
        uint32_t Group = Level[I];
        if (Sched.Members[Group].empty())
          return;
        telemetry::GroupCost *Prof = Profile ? &Profiles[Group] : nullptr;
        uint64_t T0 = Prof ? telemetry::costClockNs() : 0;
        GroupAccum[Group] =
            solveGroupPhase2(Sched.Members[Group], IndirectAccum, Prof);
        if (Prof)
          Prof->Ns += telemetry::costClockNs() - T0;
      });
      for (uint32_t Group : Level)
        IndirectAccum |= GroupAccum[Group];
    }
    if (Profile)
      telemetry::emitGroupCosts(
          "interproc.phase2", Profiles,
          [&](size_t Group) -> const std::vector<uint32_t> & {
            return Sched.Members[Group];
          },
          [&](uint32_t Routine) -> std::string_view {
            return Prog.Routines[Routine].Name;
          },
          RoutinePops.data());
  }

  const Program &Prog;
  const std::vector<RegSet> &Saved;
  ThreadPool *Pool;
  const ResourceGovernor *Gov;
  RegSet RaOnly;
  RegSet AllRegs;
  CallGraph Graph;

  /// Unfiltered entry IN sets, per routine per entrance.
  std::vector<std::vector<FlowSets>> EntrySets;

  /// Per-routine live-at-exit (shared by all exits of a routine).
  std::vector<RegSet> LiveAtExit;

  /// Per-routine per-entrance live-at-entry.
  std::vector<std::vector<RegSet>> LiveAtEntry;

  /// Phase-2 live-at-return per call site (parallel to CallBlocks); the
  /// values callee exits pull from.
  std::vector<std::vector<RegSet>> ReturnLive;

  /// Per-routine phase-2 exit seed (unknown-caller / quarantine rules).
  std::vector<RegSet> ExitSeedOfRoutine;

  /// Reverse call graph (direct calls only).
  std::vector<std::vector<uint32_t>> Callers;

  /// Direct call sites per callee: (caller routine, call index).
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> CallerSites;
};

} // namespace

InterprocSummaries
spike::runCfgTwoPhase(const Program &Prog,
                      const std::vector<RegSet> &SavedPerRoutine,
                      ThreadPool *Pool, const ResourceGovernor *Gov) {
  telemetry::Span RefSpan("interproc.cfg_two_phase");
  telemetry::count("interproc.cfg_two_phase.runs");
  TwoPhaseEngine Engine(Prog, SavedPerRoutine, Pool, Gov);
  Engine.run();
  return Engine.takeResults();
}
