//===- interproc/Incremental.cpp - Incremental re-analysis ----------------===//

#include "interproc/Incremental.h"

#include "cfg/CfgBuilder.h"
#include "cfg/SaveRestore.h"
#include "cfg/SccDriver.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <optional>

using namespace spike;

namespace {

/// The undo log of one re-analysis in place: each step that changes the
/// image or the resident result pushes the step that puts it back, and an
/// abandoned re-analysis runs them newest first.
class UndoLog {
public:
  void push(std::function<void()> Undo) { Steps.push_back(std::move(Undo)); }

  void rollback() {
    for (auto It = Steps.rbegin(); It != Steps.rend(); ++It)
      (*It)();
    Steps.clear();
  }

private:
  std::vector<std::function<void()>> Steps;
};

/// The record fields of a routine a patch may change besides its lists.
struct RecordFlags {
  QuarantineState Quarantine;
  bool CalledFromQuarantine = false;
};

RecordFlags flagsOf(const Routine &R) {
  return {{R.Quarantined, R.Degrade, R.QuarantineReason},
          R.CalledFromQuarantine};
}

void setFlags(Routine &R, const RecordFlags &Flags) {
  R.Quarantined = Flags.Quarantine.Quarantined;
  R.Degrade = Flags.Quarantine.Degrade;
  R.QuarantineReason = Flags.Quarantine.Reason;
  R.CalledFromQuarantine = Flags.CalledFromQuarantine;
}

/// The message of the first validation finding that quarantines the
/// routine spanning [Begin, End), or null.
const std::string *validationReason(const ValidationReport &Report,
                                    uint64_t Begin, uint64_t End) {
  for (const ValidationFinding &F : Report.Findings)
    if (F.Quarantines && F.Address >= 0 && uint64_t(F.Address) >= Begin &&
        uint64_t(F.Address) < End)
      return &F.Message;
  return nullptr;
}

/// A routine's distinct direct callees, ascending, and whether it makes
/// an indirect call: what the call graph reads of it.
std::pair<std::vector<uint32_t>, bool>
callsOf(std::span<const BasicBlock> Blocks,
        std::span<const uint32_t> CallBlocks) {
  std::vector<uint32_t> Callees;
  bool Indirect = false;
  for (uint32_t Block : CallBlocks) {
    if (Blocks[Block].Term == TerminatorKind::IndirectCall)
      Indirect = true;
    else
      Callees.push_back(uint32_t(Blocks[Block].CalleeRoutine));
  }
  std::sort(Callees.begin(), Callees.end());
  Callees.erase(std::unique(Callees.begin(), Callees.end()), Callees.end());
  return {std::move(Callees), Indirect};
}

/// True when rebuilt routine \p R, list \p I of the replaced lists
/// \p Old and \p OldPsg, left every id the linkage CSRs hold where it
/// was: the same node and edge counts, entrances and exits, the same
/// call sites calling the same entrances, and each call-return edge at
/// the same offset.
bool sameLinkage(const Program &Prog, const ProgramSummaryGraph &Psg,
                 uint32_t R, const CfgLists &Old, const PsgLists &OldPsg,
                 size_t I) {
  const Routine &New = Prog.Routines[R];
  uint32_t NodeBase = Psg.RoutineNodeBegin[R];
  std::span<const PsgNode> OldNodes = OldPsg.Nodes.list(I);
  std::span<const BasicBlock> OldBlocks = Old.Blocks.list(I);
  std::span<const uint32_t> OldCalls = Old.CallBlocks.list(I);
  if (Psg.RoutineNodeBegin[R + 1] - NodeBase != OldNodes.size() ||
      Psg.routineEdges(R).size() != OldPsg.Edges.list(I).size() ||
      New.EntryAddresses.size() != Old.EntryAddresses.list(I).size() ||
      New.ExitBlocks.size() != Old.ExitBlocks.list(I).size() ||
      New.CallBlocks.size() != OldCalls.size())
    return false;
  uint32_t EdgeBase = *Psg.routineEdges(R).begin();
  for (uint32_t C = 0; C < New.CallBlocks.size(); ++C) {
    const BasicBlock &A = OldBlocks[OldCalls[C]];
    const BasicBlock &B = New.Blocks[New.CallBlocks[C]];
    uint32_t Local = Psg.callNode(Prog, R, C) - NodeBase;
    if (A.Term != B.Term || A.CalleeRoutine != B.CalleeRoutine ||
        A.CalleeEntry != B.CalleeEntry ||
        OldNodes[Local].FirstOut - OldPsg.FirstEdge[I] !=
            Psg.Nodes[NodeBase + Local].FirstOut - EdgeBase)
      return false;
  }
  return true;
}

/// A routine's Section 3.5 annotations, kept to put them back.
struct AnnotationSlice {
  uint64_t Begin = 0, End = 0;
  std::map<uint64_t, IndirectCallAnnotation> Calls;
  std::map<uint64_t, RegSet> Jumps;
};

} // namespace

IncrementalOutcome spike::reanalyzeIncremental(Image &Img, uint32_t Patched,
                                               std::span<const uint64_t> Words,
                                               const AnalysisOptions &Opts,
                                               AnalysisResult &A,
                                               ThreadPool &Pool) {
  telemetry::Span Span("reanalyze");
  telemetry::count("incremental.runs");
  Program &Prog = A.Prog;
  ProgramSummaryGraph &Psg = A.Psg;
  const uint32_t NumRoutines = uint32_t(Prog.Routines.size());
  const uint64_t Begin = Prog.Routines[Patched].Begin;
  const uint64_t End = Prog.Routines[Patched].End;
  assert(Prog.Code.data() == Img.Code.data() && "A must view Img's words");
  assert(Words.size() == End - Begin && "a patch keeps the routine's size");

  const ResourceGovernor *Gov = nullptr;
  if (Opts.Governor && Opts.Governor->enabled()) {
    Opts.Governor->attachMemory(&A.Memory);
    Opts.Governor->arm();
    Gov = Opts.Governor;
  }

  // The quarantine a fresh build gives each routine.  Only the patched
  // routine's validation findings can change (revalidateRoutine), so the
  // other routines keep their validation cause and the options decide
  // the rest.
  CfgBuildOptions Sorted = sortedNames(Opts.Cfg);
  const bool WordsChanged =
      !std::equal(Words.begin(), Words.end(), Img.Code.begin() + Begin);
  std::vector<std::pair<uint32_t, QuarantineState>> Moves;
  for (uint32_t R = 0; R < NumRoutines; ++R) {
    const Routine &Rt = Prog.Routines[R];
    if (R == Patched && WordsChanged)
      continue;
    QuarantineState Want = quarantineState(
        Rt.Name,
        Rt.Degrade == DegradeReason::Validation ? &Rt.QuarantineReason
                                                : nullptr,
        Sorted);
    if (!(Want == flagsOf(Rt).Quarantine))
      Moves.push_back({R, std::move(Want)});
  }
  if (!WordsChanged && Moves.empty()) {
    telemetry::count("incremental.clean_noops");
    return IncrementalOutcome();
  }

  // Everything below is journaled in these, so a throw anywhere puts the
  // image and the result back as they were.
  UndoLog Undo;
  std::optional<SolveJournal> Journal;
  std::vector<uint64_t> OldWords(Img.Code.begin() + Begin,
                                 Img.Code.begin() + End);
  ValidationReport OldValidation;
  std::vector<uint8_t> Rebuilt(NumRoutines, 0);
  std::vector<std::pair<uint32_t, RecordFlags>> OldFlags;
  std::vector<uint32_t> Routines;
  CfgLists Cfgs;
  std::vector<AnnotationSlice> OldAnnotations;
  std::vector<std::pair<uint32_t, RegSet>> OldSaved;
  PsgLists Psgs;
  // The call graph, the schedules and the linkage CSRs are functions of
  // the program and the graph's layout: a rollback rebuilds them rather
  // than keeping the old ones.
  bool GraphChanged = false, Relinked = false;
  MemoryTracker OldMemory = A.Memory;
  const uint64_t OldCfgBytes = A.CfgBytes, OldPsgBytes = A.PsgBytes;
  std::vector<uint8_t> CalleeSeeds(NumRoutines, 0);
  std::optional<DirtyFrontier> Dirty;
  SolverStats Phase1, Phase2;
  IncrementalOutcome Out;
  const uint64_t TasksBefore = Pool.tasksRun(), StealsBefore = Pool.steals();

  // Marks routine R for a rebuild, recording its flags first.
  auto MarkRebuilt = [&](uint32_t R) {
    if (Rebuilt[R])
      return;
    Rebuilt[R] = 1;
    OldFlags.push_back({R, flagsOf(Prog.Routines[R])});
  };

  try {
    Undo.push([&] {
      for (const auto &[R, Flags] : OldFlags)
        setFlags(Prog.Routines[R], Flags);
    });

    std::optional<EntranceScan> Scan;
    {
      telemetry::Span ValidateSpan("patch.validate");
      bool Rescan = false;
      if (WordsChanged) {
        std::copy(Words.begin(), Words.end(), Img.Code.begin() + Begin);
        Undo.push([&] {
          std::copy(OldWords.begin(), OldWords.end(), Img.Code.begin() + Begin);
        });
        OldValidation = Prog.Validation;
        revalidateRoutine(Img, Begin, End, Prog.Routines[Patched].Name,
                          Prog.Routines.front().Begin, Prog.Validation);
        Undo.push([&] { Prog.Validation = std::move(OldValidation); });
        QuarantineState Want = quarantineState(
            Prog.Routines[Patched].Name,
            validationReason(Prog.Validation, Begin, End), Sorted);
        // The words' calls register entrances in other routines, and
        // quarantined or opaque words mark their callees.
        Rescan = !sameEntranceFacts(Prog, OldWords,
                                    Prog.Routines[Patched].Quarantined,
                                    Words, Want.Quarantined);
        MarkRebuilt(Patched);
        Moves.push_back({Patched, std::move(Want)});
      }
      for (auto &[R, Want] : Moves) {
        MarkRebuilt(R);
        Routine &Rt = Prog.Routines[R];
        // Quarantined code's calls register entrances and mark callees as
        // healthy code's do not.
        Rescan |= Rt.Quarantined != Want.Quarantined;
        setFlags(Rt, {std::move(Want), Rt.CalledFromQuarantine});
      }

      if (Rescan) {
        Scan = scanEntrances(Img, Prog, &Pool);
        std::vector<uint32_t> Moved;
        for (uint32_t R = 0; R < NumRoutines; ++R) {
          Routine &Rt = Prog.Routines[R];
          bool NewEntries =
              !std::ranges::equal(Scan->entries(R), Rt.EntryAddresses);
          bool Marked = Scan->CalledFromQuarantine[R] != 0;
          if (!NewEntries && Marked == Rt.CalledFromQuarantine)
            continue;
          MarkRebuilt(R);
          Rt.CalledFromQuarantine = Marked;
          if (NewEntries)
            Moved.push_back(R);
        }
        // A caller of a routine whose entrances moved names its entrance
        // by index: rebuild the callers whose index shifts.
        for (uint32_t R : Moved)
          for (uint32_t Caller : Prog.Calls.Callers[R]) {
            const Routine &C = Prog.Routines[Caller];
            if (Rebuilt[Caller])
              continue;
            for (uint32_t Block : C.CallBlocks) {
              const BasicBlock &B = C.Blocks[Block];
              if (B.Term != TerminatorKind::Call ||
                  uint32_t(B.CalleeRoutine) != R)
                continue;
              std::span<const uint64_t> Entries = Scan->entries(R);
              uint64_t Target =
                  Prog.Routines[R].EntryAddresses[uint32_t(B.CalleeEntry)];
              if (std::lower_bound(Entries.begin(), Entries.end(), Target) -
                      Entries.begin() !=
                  B.CalleeEntry) {
                MarkRebuilt(Caller);
                break;
              }
            }
          }
      }
    }
    for (uint32_t R = 0; R < NumRoutines; ++R)
      if (Rebuilt[R])
        Routines.push_back(R);
    std::sort(OldFlags.begin(), OldFlags.end(),
              [](const auto &X, const auto &Y) { return X.first < Y.first; });

    uint64_t CfgBytes = A.CfgBytes;
    {
      telemetry::Span CfgSpan("patch.cfg");
      Cfgs = buildCfgLists(Prog, Routines, Scan ? &*Scan : nullptr, &Pool);
      for (uint32_t R : Routines)
        CfgBytes -= routineCfgBytes(Prog.Routines[R]);
      spliceCfgLists(Prog, Routines, Cfgs);
      Undo.push([&] { spliceCfgLists(Prog, Routines, Cfgs); });
      computeDefUbd(Prog, Routines, &Pool);
      for (uint32_t R : Routines)
        CfgBytes += routineCfgBytes(Prog.Routines[R]);

      for (uint32_t R : Routines) {
        const Routine &Rt = Prog.Routines[R];
        AnnotationSlice &Old = OldAnnotations.emplace_back();
        Old.Begin = Rt.Begin;
        Old.End = Rt.End;
        Old.Calls.insert(Prog.CallAnnotations.lower_bound(Rt.Begin),
                         Prog.CallAnnotations.lower_bound(Rt.End));
        Old.Jumps.insert(Prog.JumpLiveAnnotations.lower_bound(Rt.Begin),
                         Prog.JumpLiveAnnotations.lower_bound(Rt.End));
      }
      Undo.push([&] {
        for (const AnnotationSlice &Old : OldAnnotations) {
          Prog.CallAnnotations.erase(
              Prog.CallAnnotations.lower_bound(Old.Begin),
              Prog.CallAnnotations.lower_bound(Old.End));
          Prog.JumpLiveAnnotations.erase(
              Prog.JumpLiveAnnotations.lower_bound(Old.Begin),
              Prog.JumpLiveAnnotations.lower_bound(Old.End));
          Prog.CallAnnotations.insert(Old.Calls.begin(), Old.Calls.end());
          Prog.JumpLiveAnnotations.insert(Old.Jumps.begin(), Old.Jumps.end());
        }
      });
      for (uint32_t R : Routines)
        copyAnnotations(Prog, Img, Prog.Routines[R].Begin,
                        Prog.Routines[R].End);

      Undo.push([&] {
        for (const auto &[R, Saved] : OldSaved)
          A.SavedPerRoutine[R] = Saved;
      });
      for (uint32_t R : Routines) {
        OldSaved.push_back({R, A.SavedPerRoutine[R]});
        A.SavedPerRoutine[R] =
            analyzeSaveRestore(Prog, Prog.Routines[R]).Saved;
      }

      // The call graph reads each routine's callees, indirect calls and
      // quarantine flags; the schedules read the graph.
      bool Changed = false;
      for (size_t I = 0; I < Routines.size() && !Changed; ++I) {
        const Routine &New = Prog.Routines[Routines[I]];
        const RecordFlags &Flags = OldFlags[I].second;
        Changed = callsOf(Cfgs.Blocks.list(I), Cfgs.CallBlocks.list(I)) !=
                      callsOf(New.Blocks, New.CallBlocks) ||
                  Flags.Quarantine.Quarantined != New.Quarantined ||
                  Flags.CalledFromQuarantine != New.CalledFromQuarantine;
      }
      if (Changed) {
        CfgBytes -= scheduleBytes(Prog);
        GraphChanged = true;
        buildSchedules(Prog, &Pool);
        CfgBytes += scheduleBytes(Prog);
      }
    }
    if (Gov)
      Gov->pollOrThrow("analyze.cfg-build");

    uint64_t PsgBytes = A.PsgBytes;
    {
      telemetry::Span PsgSpan("patch.psg");
      Psgs = buildPsgLists(Prog, Routines, Opts.Psg, &Pool);
      for (uint32_t R : Routines)
        PsgBytes -= routinePsgBytes(Psg, R);
      splicePsgLists(Psg, Routines, Psgs);
      Undo.push([&] { splicePsgLists(Psg, Routines, Psgs); });
      for (uint32_t R : Routines)
        PsgBytes += routinePsgBytes(Psg, R);

      bool Relink = false;
      for (size_t I = 0; I < Routines.size() && !Relink; ++I)
        Relink = !sameLinkage(Prog, Psg, Routines[I], Cfgs, Psgs, I);
      if (Relink) {
        PsgBytes -= psgIndexBytes(Psg);
        Relinked = true;
        rebuildLinkage(Prog, Psg);
        PsgBytes += psgIndexBytes(Psg);
      }
    }
    if (Gov)
      Gov->pollOrThrow("analyze.psg-build");

    Undo.push([&] {
      A.Memory = OldMemory;
      A.CfgBytes = OldCfgBytes;
      A.PsgBytes = OldPsgBytes;
    });
    A.CfgBytes = CfgBytes;
    A.PsgBytes = PsgBytes;
    A.Memory.settle(A.CfgBytes + A.InitBytes + A.PsgBytes);

    // Phase 2's extra seeds, and the only place they are made: every
    // routine a rebuilt routine calls in *either* version re-solves — a
    // dropped call site shrinks the old callee's exit liveness, which no
    // new-graph walk would notice.
    for (size_t I = 0; I < Routines.size(); ++I) {
      const Routine &New = Prog.Routines[Routines[I]];
      std::span<const BasicBlock> OldBlocks = Cfgs.Blocks.list(I);
      for (uint32_t Block : Cfgs.CallBlocks.list(I))
        if (int32_t Callee = OldBlocks[Block].CalleeRoutine; Callee >= 0)
          CalleeSeeds[uint32_t(Callee)] = 1;
      for (uint32_t Block : New.CallBlocks)
        if (int32_t Callee = New.Blocks[Block].CalleeRoutine; Callee >= 0)
          CalleeSeeds[uint32_t(Callee)] = 1;
    }

    std::vector<uint8_t> Clean(NumRoutines);
    for (uint32_t R = 0; R < NumRoutines; ++R)
      Clean[R] = !Rebuilt[R];
    Dirty.emplace(Clean);
    Out.StructDirty = Routines.size();
    PhaseReuse Reuse;
    Reuse.Rebuilt = &Rebuilt;
    Reuse.Dirty = &*Dirty;
    Journal.emplace(Prog, Psg);
    Reuse.Journal = &*Journal;
    Reuse.EscalatedOut = &Out.Phase2Escalated;
    Phase1 = runPhase1(Prog, Psg, A.SavedPerRoutine, &Pool, Gov, &Reuse);
    Out.Phase1Dirty = Dirty->count();
    // Phase 2 starts from phase 1's final flags plus the callee seeds.
    Dirty->flagEach(CalleeSeeds);
    Phase2 = runPhase2(Prog, Psg, &Pool, Gov, &Reuse);
    Out.Phase2Dirty = Dirty->count();
  } catch (...) {
    if (Journal)
      Journal->rollback(Prog, Psg);
    Undo.rollback();
    if (GraphChanged)
      buildSchedules(Prog, &Pool);
    if (Relinked)
      rebuildLinkage(Prog, Psg);
    throw;
  }

  // Committed.  Summary extraction is a pure read of the converged graph:
  // redo it for the routines that re-solved.
  A.Phase1Stats = Phase1;
  A.Phase2Stats = Phase2;
  {
    telemetry::Span SummarySpan("patch.summaries");
    for (uint32_t R = 0; R < NumRoutines; ++R)
      if (Dirty->dirty(R))
        A.Summaries.Routines[R] =
            extractRoutineSummaries(Prog, Psg, A.SavedPerRoutine[R], R);
  }

  telemetry::count("incremental.struct_dirty", Out.StructDirty);
  telemetry::count("incremental.phase1_dirty", Out.Phase1Dirty);
  telemetry::count("incremental.phase2_dirty", Out.Phase2Dirty);
  telemetry::gaugeHigh("analyze.memory.peak_bytes", A.Memory.peakBytes());
  telemetry::gaugeSet("analysis.jobs", Pool.jobs());
  telemetry::count("pool.tasks", Pool.tasksRun() - TasksBefore);
  telemetry::count("pool.steals", Pool.steals() - StealsBefore);
  return Out;
}
