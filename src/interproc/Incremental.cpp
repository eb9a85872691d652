//===- interproc/Incremental.cpp - Incremental re-analysis ----------------===//

#include "interproc/Incremental.h"

#include "cfg/CfgBuilder.h"
#include "cfg/SaveRestore.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <memory>

using namespace spike;

namespace {

/// Field-wise basic-block equality (the record has no operator== because
/// nothing else needs one).  The arc ranges compare as offsets; the arcs
/// themselves are compared once per routine.
bool sameBlockRecord(const BasicBlock &A, const BasicBlock &B) {
  return A.Begin == B.Begin && A.End == B.End &&
         A.FirstSucc == B.FirstSucc && A.NumSuccs == B.NumSuccs &&
         A.FirstPred == B.FirstPred && A.NumPreds == B.NumPreds &&
         A.Term == B.Term &&
         A.CalleeRoutine == B.CalleeRoutine &&
         A.CalleeEntry == B.CalleeEntry &&
         A.JumpTableIndex == B.JumpTableIndex && A.Def == B.Def &&
         A.Ubd == B.Ubd;
}

/// Deep equality of the whole routine record: everything the PSG builder
/// and both solvers read.  Equal records (plus equal instruction and
/// annotation slices) imply an identical per-routine PSG node/edge
/// layout and identical transfer functions — the PhaseReuse premise.
bool sameRoutineRecord(const Routine &A, const Routine &B) {
  if (A.Name != B.Name || A.Begin != B.Begin || A.End != B.End ||
      A.Blocks.size() != B.Blocks.size() || A.Arcs != B.Arcs)
    return false;
  for (size_t I = 0; I < A.Blocks.size(); ++I)
    if (!sameBlockRecord(A.Blocks[I], B.Blocks[I]))
      return false;
  return A.EntryAddresses == B.EntryAddresses &&
         A.EntryBlocks == B.EntryBlocks && A.ExitBlocks == B.ExitBlocks &&
         A.CallBlocks == B.CallBlocks && A.AddressTaken == B.AddressTaken &&
         A.Quarantined == B.Quarantined &&
         A.QuarantineReason == B.QuarantineReason &&
         A.Degrade == B.Degrade &&
         A.CalledFromQuarantine == B.CalledFromQuarantine &&
         A.NumBranches == B.NumBranches;
}

/// Equality of a Section 3.5 annotation map restricted to [Begin, End).
template <class MapT>
bool sameAnnotationSlice(const MapT &A, const MapT &B, uint64_t Begin,
                         uint64_t End) {
  return std::equal(A.lower_bound(Begin), A.lower_bound(End),
                    B.lower_bound(Begin), B.lower_bound(End));
}

/// True when both versions partition the code into the same routines —
/// the precondition for routine-indexed reuse.  (Patches replace a
/// routine's words in place, so this holds for every patch-routine
/// request; a `load` of an unrelated image fails it and falls back.)
bool samePartition(const Program &Old, const Program &New) {
  if (Old.Routines.size() != New.Routines.size() ||
      Old.EntryRoutine != New.EntryRoutine)
    return false;
  for (size_t R = 0; R < Old.Routines.size(); ++R) {
    const Routine &A = Old.Routines[R], &B = New.Routines[R];
    if (A.Name != B.Name || A.Begin != B.Begin || A.End != B.End)
      return false;
  }
  return true;
}

/// True when routine \p R is structurally identical in both versions:
/// same decoded instructions, same CFG record, same annotation slices.
bool structurallyClean(const Program &Old, const Program &New, uint32_t R) {
  const Routine &A = Old.Routines[R], &B = New.Routines[R];
  if (!sameRoutineRecord(A, B))
    return false;
  for (uint64_t Addr = B.Begin; Addr < B.End; ++Addr)
    if (!(Old.Insts[Addr] == New.Insts[Addr]))
      return false;
  return sameAnnotationSlice(Old.CallAnnotations, New.CallAnnotations,
                             B.Begin, B.End) &&
         sameAnnotationSlice(Old.JumpLiveAnnotations,
                             New.JumpLiveAnnotations, B.Begin, B.End);
}

/// The full-solve escape hatch: correctness never depends on reuse.
IncrementalOutcome fullFallback(const Image &NewImg, const CallingConv &Conv,
                                const AnalysisOptions &Opts,
                                AnalysisResult &A, SlotFlowResult *Slots) {
  telemetry::count("incremental.full_fallbacks");
  A = analyzeImage(NewImg, Conv, Opts);
  if (Slots) {
    // The governor's memory pointer was attached to the moved-from
    // temporary inside analyzeImage; repoint it before metering more.
    if (Opts.Governor && Opts.Governor->enabled())
      Opts.Governor->attachMemory(&A.Memory);
    ThreadPool Pool(Opts.Jobs);
    *Slots = solveSlotFlow(A.Prog, &Pool,
                           Opts.Governor && Opts.Governor->enabled()
                               ? Opts.Governor
                               : nullptr);
  }
  IncrementalOutcome Out;
  Out.Full = true;
  Out.StructDirty = A.Prog.Routines.size();
  Out.Phase1Dirty = Out.Phase2Dirty = Out.StructDirty;
  if (Slots)
    Out.SlotPhase1Dirty = Out.SlotPhase2Dirty = Out.StructDirty;
  return Out;
}

} // namespace

IncrementalOutcome spike::reanalyzeIncremental(const Image &NewImg,
                                               const CallingConv &Conv,
                                               const AnalysisOptions &Opts,
                                               AnalysisResult &A,
                                               SlotFlowResult *Slots) {
  telemetry::Span Span("reanalyze");
  telemetry::count("incremental.runs");

  // Reuse restores provenance slots from the old store; without one there
  // is nothing to restore from.
  if (Opts.RecordProvenance && !A.Provenance.enabled())
    return fullFallback(NewImg, Conv, Opts, A, Slots);

  AnalysisResult New;
  const ResourceGovernor *Gov = nullptr;
  if (Opts.Governor && Opts.Governor->enabled()) {
    Opts.Governor->attachMemory(&New.Memory);
    Opts.Governor->arm();
    Gov = Opts.Governor;
  }

  ThreadPool Pool(Opts.Jobs);

  {
    StageTimer::Scope Scope(New.Stages, AnalysisStage::CfgBuild);
    New.Prog = buildProgram(NewImg, Conv, &New.Memory, Opts.Cfg, &Pool);
    New.CfgBytes = New.Memory.liveBytes();
  }
  if (Gov)
    Gov->pollOrThrow("analyze.cfg-build");

  {
    StageTimer::Scope Scope(New.Stages, AnalysisStage::Initialization);
    telemetry::Span InitSpan("init");
    computeDefUbd(New.Prog, &Pool);
    New.SavedPerRoutine.resize(New.Prog.Routines.size());
    forEachTask(&Pool, New.Prog.Routines.size(),
                [&](size_t RoutineIndex, unsigned) {
                  New.SavedPerRoutine[RoutineIndex] =
                      analyzeSaveRestore(New.Prog,
                                         New.Prog.Routines[RoutineIndex])
                          .Saved;
                });
    New.Memory.charge(New.SavedPerRoutine.size() * sizeof(RegSet));
    New.InitBytes = New.Memory.liveBytes() - New.CfgBytes;
  }

  if (!samePartition(A.Prog, New.Prog))
    return fullFallback(NewImg, Conv, Opts, A, Slots);

  // The structural diff.  Def/Ubd are compared too, so it must run after
  // computeDefUbd; each routine's diff is independent work.
  size_t NumRoutines = New.Prog.Routines.size();
  std::vector<uint8_t> StructClean(NumRoutines, 0);
  forEachTask(&Pool, NumRoutines, [&](size_t R, unsigned) {
    StructClean[R] = structurallyClean(A.Prog, New.Prog, uint32_t(R));
  });

  // Every routine clean: the resident result is already the converged
  // answer for this image (the no-change save a client sends when
  // re-publishing an unmodified routine).  Skip the PSG build, both
  // phases, summary extraction, and the slot re-solve outright.
  if (std::all_of(StructClean.begin(), StructClean.end(),
                  [](uint8_t C) { return C != 0; })) {
    telemetry::count("incremental.clean_noops");
    if (Gov)
      Opts.Governor->attachMemory(&A.Memory);
    return IncrementalOutcome();
  }

  {
    StageTimer::Scope Scope(New.Stages, AnalysisStage::PsgBuild);
    New.Psg = buildPsg(New.Prog, Opts.Psg, &New.Memory, &Pool);
    New.PsgBytes = New.Memory.liveBytes() - New.CfgBytes - New.InitBytes;
  }
  if (Gov)
    Gov->pollOrThrow("analyze.psg-build");

  ProvenanceStore *Prov = nullptr;
  if (Opts.RecordProvenance) {
    New.Provenance.init(New.Psg.Nodes.size());
    New.Memory.charge(New.Provenance.bytes());
    Prov = &New.Provenance;
  }

  IncrementalOutcome Out;
  std::unique_ptr<std::atomic<uint8_t>[]> Dirty(
      new std::atomic<uint8_t>[NumRoutines]);
  for (size_t R = 0; R < NumRoutines; ++R) {
    Dirty[R].store(StructClean[R] ? 0 : 1, std::memory_order_relaxed);
    Out.StructDirty += !StructClean[R];
  }
  std::atomic<uint8_t> Escalated{0};

  PhaseReuse Reuse;
  Reuse.OldProg = &A.Prog;
  Reuse.OldPsg = &A.Psg;
  Reuse.OldProv = Opts.RecordProvenance ? &A.Provenance : nullptr;
  Reuse.StructClean = &StructClean;
  Reuse.Dirty = Dirty.get();
  Reuse.EscalatedOut = &Escalated;

  {
    StageTimer::Scope Scope(New.Stages, AnalysisStage::Phase1);
    New.Phase1Stats = runPhase1(New.Prog, New.Psg, New.SavedPerRoutine,
                                &Pool, Prov, Gov, &Reuse);
  }
  for (size_t R = 0; R < NumRoutines; ++R)
    Out.Phase1Dirty += Dirty[R].load(std::memory_order_relaxed) != 0;

  // Phase 2 seeding: beyond phase 1's final flags, every routine a
  // struct-dirty routine calls in *either* version re-solves — a dropped
  // call site shrinks the old callee's exit liveness, which no new-graph
  // walk would notice.
  auto FlagCallees = [&](const Program &P, uint32_t R) {
    for (uint32_t CallBlock : P.Routines[R].CallBlocks) {
      int32_t Callee = P.Routines[R].Blocks[CallBlock].CalleeRoutine;
      if (Callee >= 0)
        Dirty[Callee].store(1, std::memory_order_relaxed);
    }
  };
  for (uint32_t R = 0; R < NumRoutines; ++R)
    if (!StructClean[R]) {
      FlagCallees(A.Prog, R);
      FlagCallees(New.Prog, R);
    }

  {
    StageTimer::Scope Scope(New.Stages, AnalysisStage::Phase2);
    New.Phase2Stats = runPhase2(New.Prog, New.Psg, &Pool, Prov, Gov, &Reuse);
  }
  Out.Phase2Escalated = Escalated.load(std::memory_order_relaxed) != 0;
  for (size_t R = 0; R < NumRoutines; ++R)
    Out.Phase2Dirty += Dirty[R].load(std::memory_order_relaxed) != 0;

  // Summary extraction is a cheap pure read of the converged graph; run
  // it in full rather than diffing.
  New.Summaries = extractSummaries(New.Prog, New.Psg, New.SavedPerRoutine);

  // The slot engine re-solves with its own reuse seeds before the swap,
  // so a budget blow leaves both resident stores untouched.
  SlotFlowResult NewSlots;
  if (Slots) {
    std::vector<uint8_t> SlotPhase2Seeds(NumRoutines, 0);
    for (uint32_t R = 0; R < NumRoutines; ++R)
      if (!StructClean[R]) {
        for (uint32_t CallBlock : A.Prog.Routines[R].CallBlocks) {
          int32_t Callee = A.Prog.Routines[R].Blocks[CallBlock].CalleeRoutine;
          if (Callee >= 0)
            SlotPhase2Seeds[Callee] = 1;
        }
        for (uint32_t CallBlock : New.Prog.Routines[R].CallBlocks) {
          int32_t Callee =
              New.Prog.Routines[R].Blocks[CallBlock].CalleeRoutine;
          if (Callee >= 0)
            SlotPhase2Seeds[Callee] = 1;
        }
      }
    SlotReuse SReuse;
    SReuse.Old = Slots;
    SReuse.StructClean = &StructClean;
    SReuse.Phase2Seeds = &SlotPhase2Seeds;
    SlotReuseStats SStats;
    NewSlots = solveSlotFlowIncremental(New.Prog, SReuse, &Pool, Gov,
                                        &SStats);
    Out.SlotFull = SStats.Full;
    Out.SlotPhase1Dirty = SStats.Phase1Dirty;
    Out.SlotPhase2Dirty = SStats.Phase2Dirty;
  }

  if (Prov) {
    telemetry::count("provenance.records",
                     New.Phase1Stats.ProvenanceRecords +
                         New.Phase2Stats.ProvenanceRecords);
    telemetry::gaugeHigh("provenance.bytes", New.Provenance.bytes());
  }
  telemetry::count("incremental.struct_dirty", Out.StructDirty);
  telemetry::count("incremental.phase1_dirty", Out.Phase1Dirty);
  telemetry::count("incremental.phase2_dirty", Out.Phase2Dirty);
  telemetry::gaugeHigh("analyze.memory.peak_bytes", New.Memory.peakBytes());
  telemetry::gaugeSet("analysis.jobs", Pool.jobs());
  telemetry::count("pool.tasks", Pool.tasksRun());
  telemetry::count("pool.steals", Pool.steals());

  A = std::move(New);
  if (Slots)
    *Slots = std::move(NewSlots);
  if (Gov)
    Opts.Governor->attachMemory(&A.Memory);
  return Out;
}
