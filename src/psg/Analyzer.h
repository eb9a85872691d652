//===- psg/Analyzer.h - End-to-end interprocedural analysis ---*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level driver: Image -> summaries, with the paper's five-stage
/// pipeline and per-stage timing / memory accounting (Table 2, Figure 13,
/// Figure 15):
///
///   1. CFG Build        decode + routine partition + basic blocks
///   2. Initialization   DEF/UBD sets, callee-saved save/restore analysis
///   3. PSG Build        nodes, flow-summary edge discovery + labelling
///   4. Phase 1          call-used / call-defined / call-killed
///   5. Phase 2          live-at-entry / live-at-exit
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PSG_ANALYZER_H
#define SPIKE_PSG_ANALYZER_H

#include "binary/Image.h"
#include "cfg/CfgBuilder.h"
#include "provenance/Provenance.h"
#include "psg/PsgBuilder.h"
#include "psg/PsgSolver.h"
#include "psg/Summaries.h"
#include "support/Budget.h"
#include "support/MemoryTracker.h"
#include "support/Stopwatch.h"

namespace spike {

/// Options for a full analysis run.
struct AnalysisOptions {
  PsgBuildOptions Psg;
  CfgBuildOptions Cfg;

  /// Worker lanes for the parallel engine (the --jobs flag).  1 runs
  /// everything inline on the calling thread; any value produces
  /// bit-identical summaries, live sets, and telemetry counters (only
  /// pool.steals and the analysis.jobs gauge reflect the setting).
  unsigned Jobs = 1;

  /// Record, for every MAY-USE / MAY-DEF / Live bit the solver sets, the
  /// edge or seed that first derived it (the spike-explain witness
  /// source).  Off by default: the disabled path performs no allocation
  /// and no recording work, and the recorded store — like every other
  /// analysis output — is bit-identical at any Jobs value.
  bool RecordProvenance = false;

  /// Resource governor the solver phases poll (null = ungoverned).  At
  /// the start of the run the analyzer attaches its MemoryTracker and
  /// re-arms the deadline, so a deadline bounds one analysis attempt.
  /// When a budget blows, analyzeImage throws BudgetBlownError; use
  /// analyzeImageGoverned for the degrade-and-retry policy.
  ResourceGovernor *Governor = nullptr;
};

/// Everything a full analysis run produces.
struct AnalysisResult {
  Program Prog;
  ProgramSummaryGraph Psg;

  /// Per-routine Section 3.4 filter sets.
  std::vector<RegSet> SavedPerRoutine;

  InterprocSummaries Summaries;

  /// Per-stage wall-clock time (Figure 13) — totalSeconds() is Table 2's
  /// "Total Dataflow Time".
  StageTimer Stages;

  /// Analysis memory accounting (Table 2 / Figure 15).
  MemoryTracker Memory;

  /// Tracked bytes the CFG build, initialization and PSG build stages
  /// each added to Memory.  Nothing is released during a run, so these
  /// plus Provenance.bytes() (when recording) sum to Memory.peakBytes().
  uint64_t CfgBytes = 0;
  uint64_t InitBytes = 0;
  uint64_t PsgBytes = 0;

  SolverStats Phase1Stats;
  SolverStats Phase2Stats;

  /// First derivations of the solved bits (empty unless
  /// AnalysisOptions::RecordProvenance was set).
  ProvenanceStore Provenance;

  /// Returns the converged *unfiltered* flow sets of entrance \p Entry of
  /// routine \p RoutineIndex (the Section 3.4 callee-saved filter is only
  /// applied when extracting Summaries; diagnostics that reason about
  /// save/restore behaviour need the raw sets).
  const FlowSets &entrySets(uint32_t RoutineIndex, uint32_t Entry) const {
    return Psg.Nodes[Psg.RoutineInfo[RoutineIndex].EntryNodes[Entry]].Sets;
  }
};

/// Runs the complete analysis on \p Img.
AnalysisResult analyzeImage(const Image &Img, const CallingConv &Conv = {},
                            const AnalysisOptions &Opts = {});

/// Every primary symbol name of \p Img, sorted and deduplicated: the
/// degrade-everything escalation set of the governed retry ladders
/// (secondary symbols alias a primary at the same address, so degrading
/// the primaries covers every routine).
std::vector<std::string> primaryRoutineNames(const Image &Img);

/// What a governed analysis run produced, besides the result itself.
struct GovernedAnalysis {
  AnalysisResult Result;

  /// Routines degraded to Section 3.5 unknowable summaries because their
  /// SCC group blew the budget (DegradeReason::Budget in Result.Prog).
  std::vector<std::string> DegradedRoutines;

  /// analyzeImage attempts consumed (1 = no budget blown).
  unsigned Attempts = 1;

  /// The verdict that forced the first degradation, or Ok.
  BudgetVerdict FirstBlow = BudgetVerdict::Ok;
};

/// Runs analyzeImage under \p Budget with the sound-degradation retry
/// policy: when an SCC group blows the budget, its routines are
/// collapsed to Section 3.5 unknowable summaries (the quarantine
/// machinery, tagged DegradeReason::Budget) and the analysis re-runs
/// with the deadline re-armed.  After BudgetOptions::MaxAttempts, every
/// routine is degraded for one final attempt.  Returns the (possibly
/// degraded but always sound) result, or a structured error when the
/// run was cancelled or the budget cannot be met even fully degraded.
/// With the deterministic --max-iters trigger, the degradation sequence
/// and result are bit-identical at every Jobs value.
Expected<GovernedAnalysis>
analyzeImageGoverned(const Image &Img, const CallingConv &Conv,
                     AnalysisOptions Opts, const BudgetOptions &Budget,
                     CancellationToken *Token = nullptr);

} // namespace spike

#endif // SPIKE_PSG_ANALYZER_H
