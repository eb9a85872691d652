//===- interproc/Incremental.cpp - Incremental re-analysis ----------------===//

#include "interproc/Incremental.h"

#include "cfg/SccDriver.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>

using namespace spike;

namespace {

/// Field-wise basic-block equality (the record has no operator== because
/// nothing else needs one).  The arc ranges compare as offsets; the arcs
/// themselves are compared once per routine.
bool sameBlockRecord(const BasicBlock &A, const BasicBlock &B) {
  return A.Begin == B.Begin && A.End == B.End &&
         A.FirstSucc == B.FirstSucc && A.FirstPred == B.FirstPred &&
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
      A.Blocks.size() != B.Blocks.size() || !std::ranges::equal(A.Arcs, B.Arcs))
    return false;
  for (size_t I = 0; I < A.Blocks.size(); ++I)
    if (!sameBlockRecord(A.Blocks[I], B.Blocks[I]))
      return false;
  return std::ranges::equal(A.EntryAddresses, B.EntryAddresses) &&
         std::ranges::equal(A.EntryBlocks, B.EntryBlocks) &&
         std::ranges::equal(A.ExitBlocks, B.ExitBlocks) &&
         std::ranges::equal(A.CallBlocks, B.CallBlocks) &&
         A.AddressTaken == B.AddressTaken &&
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
    if (!(Old.inst(Addr) == New.inst(Addr)))
      return false;
  return sameAnnotationSlice(Old.CallAnnotations, New.CallAnnotations,
                             B.Begin, B.End) &&
         sameAnnotationSlice(Old.JumpLiveAnnotations,
                             New.JumpLiveAnnotations, B.Begin, B.End);
}

/// The full-solve escape hatch: correctness never depends on reuse.
IncrementalOutcome fullFallback(const Image &NewImg, const CallingConv &Conv,
                                const AnalysisOptions &Opts,
                                AnalysisResult &A) {
  telemetry::count("incremental.full_fallbacks");
  A = analyzeImage(NewImg, Conv, Opts);
  // analyzeImage attached the governor to its own temporary; repoint it
  // at the resident result, as the incremental path does.
  if (Opts.Governor && Opts.Governor->enabled())
    Opts.Governor->attachMemory(&A.Memory);
  IncrementalOutcome Out;
  Out.Full = true;
  Out.StructDirty = A.Prog.Routines.size();
  Out.Phase1Dirty = Out.Phase2Dirty = Out.StructDirty;
  return Out;
}

} // namespace

IncrementalOutcome spike::reanalyzeIncremental(const Image &NewImg,
                                               const CallingConv &Conv,
                                               const AnalysisOptions &Opts,
                                               AnalysisResult &A) {
  telemetry::Span Span("reanalyze");
  telemetry::count("incremental.runs");

  AnalysisResult New;
  ThreadPool Pool(Opts.Jobs);
  const ResourceGovernor *Gov =
      buildAndInitialize(NewImg, Conv, Opts, Pool, New);

  if (!samePartition(A.Prog, New.Prog))
    return fullFallback(NewImg, Conv, Opts, A);

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
  // phases and summary extraction outright.
  if (std::all_of(StructClean.begin(), StructClean.end(),
                  [](uint8_t C) { return C != 0; })) {
    telemetry::count("incremental.clean_noops");
    if (Gov)
      Opts.Governor->attachMemory(&A.Memory);
    return IncrementalOutcome();
  }

  New.Psg = buildPsg(New.Prog, Opts.Psg, &New.Memory, &Pool);
  New.PsgBytes = New.Memory.liveBytes() - New.CfgBytes - New.InitBytes;
  if (Gov)
    Gov->pollOrThrow("analyze.psg-build");

  IncrementalOutcome Out;
  DirtyFrontier Dirty(StructClean);
  Out.StructDirty = Dirty.count();

  // Phase 2's extra seeds: every routine a struct-dirty routine calls in
  // *either* version re-solves — a dropped call site shrinks the old
  // callee's exit liveness, which no new-graph walk would notice.
  std::vector<uint8_t> CalleeSeeds(NumRoutines, 0);
  for (uint32_t R = 0; R < NumRoutines; ++R)
    if (!StructClean[R])
      for (const Program *P : {&A.Prog, &New.Prog})
        for (uint32_t CallBlock : P->Routines[R].CallBlocks)
          if (int32_t Callee = P->Routines[R].Blocks[CallBlock].CalleeRoutine;
              Callee >= 0)
            CalleeSeeds[Callee] = 1;

  PhaseReuse Reuse;
  Reuse.OldProg = &A.Prog;
  Reuse.OldPsg = &A.Psg;
  Reuse.StructClean = &StructClean;
  Reuse.Dirty = &Dirty;
  Reuse.EscalatedOut = &Out.Phase2Escalated;

  New.Phase1Stats =
      runPhase1(New.Prog, New.Psg, New.SavedPerRoutine, &Pool, Gov, &Reuse);
  Out.Phase1Dirty = Dirty.count();

  // Phase 2 starts from phase 1's final flags plus the callee seeds.
  Dirty.flagEach(CalleeSeeds);
  New.Phase2Stats = runPhase2(New.Prog, New.Psg, &Pool, Gov, &Reuse);
  Out.Phase2Dirty = Dirty.count();

  // Summary extraction is a cheap pure read of the converged graph; run
  // it in full rather than diffing.
  New.Summaries = extractSummaries(New.Prog, New.Psg, New.SavedPerRoutine);

  telemetry::count("incremental.struct_dirty", Out.StructDirty);
  telemetry::count("incremental.phase1_dirty", Out.Phase1Dirty);
  telemetry::count("incremental.phase2_dirty", Out.Phase2Dirty);
  telemetry::gaugeHigh("analyze.memory.peak_bytes", New.Memory.peakBytes());
  telemetry::gaugeSet("analysis.jobs", Pool.jobs());
  telemetry::count("pool.tasks", Pool.tasksRun());
  telemetry::count("pool.steals", Pool.steals());

  A = std::move(New);
  if (Gov)
    Opts.Governor->attachMemory(&A.Memory);
  return Out;
}
